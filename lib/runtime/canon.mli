(** Canonical keys for rooted labelled views, and exact equivalence.

    Coverage enumeration asks the same question millions of times: are
    these two stripped views isomorphic as rooted labelled graphs?
    [key] canonicalises a view once — refinement fingerprint plus, when
    the refinement is discrete, an exact canonical form — after which
    {!equivalent} is a linear comparison instead of a backtracking
    search. Both come from one run of the refinement kernel in
    {!Locald_graph.Iso.view_refinement}, so the fingerprint is
    {!Locald_graph.Iso.view_signature} by construction. A discrete
    colouring numbers the nodes [0 .. n-1] and is used as their rank
    directly: the form is the centre's rank, the labels in rank order
    and the edges as sorted [int] codes [a * n + b] ([a < b]).

    The fingerprint alone is a poor bucket key for discrete views: their
    refinement is renumbered [0..n-1], so the fingerprint carries only
    (centre rank, order, size) and thousands of distinct views share a
    few hundred buckets. {!classes} is the set to deduplicate with: it
    buckets exact keys by their canonical form, so each insertion costs
    about one comparison.

    Every answer is exact: whenever the canonical route cannot decide
    (non-discrete refinement), [equivalent] falls back to
    {!Locald_graph.Iso.views_isomorphic}, whatever the views' size.
    [hash] must respect [equal] (equal labels hash equally), the same
    contract as [Iso.view_signature]. There is no memo table: a key is
    a pure function of the view and the two label functions, so every
    entry point on ['a t] is thread-safe by holding no state; a
    {!classes} set has a single writer. *)

open Locald_graph

type 'a t
(** The two label functions a key is computed with. *)

type 'a key

type stats = {
  keys : int;      (** keys computed (counter [canon.misses]) *)
  exact : int;     (** equivalence decided by canonical-form equality *)
  fallback : int;  (** equivalence decided by the backtracking search *)
}

val create : ?hash:('a -> int) -> equal:('a -> 'a -> bool) -> unit -> 'a t
(** The label functions: [equal] compares labels, [hash] (default
    [Hashtbl.hash]) hashes them consistently with it. *)

val key : 'a t -> 'a View.t -> 'a key
(** Canonicalise a view: one run of the refinement kernel. *)

val fingerprint : 'a key -> int
(** Iso-invariant: equal for isomorphic views; equal to
    [Iso.view_signature hash view]. *)

val view : 'a key -> 'a View.t

val exact : 'a key -> bool
(** Did canonicalisation produce an exact form (discrete refinement)? *)

val equivalent : 'a t -> 'a key -> 'a key -> bool
(** Rooted labelled isomorphism via the keys: fingerprint, order and
    size filter, then canonical-form equality when both keys are exact,
    else the backtracking {!Locald_graph.Iso.views_isomorphic}. Agrees
    with [Iso.views_isomorphic equal] on every pair of views. *)

(** {1 Sets of keys up to equivalence} *)

type 'a classes

val classes : 'a t -> 'a classes
(** An empty set of keys of [t], compared with [equivalent t]. An exact
    key is bucketed by a hash of its canonical form (centre rank, label
    hashes in rank order, rank-space edges); any other key by
    (fingerprint, order, size). Equivalent keys always share a bucket.
    Single writer: {!add} must not run concurrently with anything else
    on the set; concurrent {!mem} calls are safe. *)

val add : 'a classes -> 'a key -> bool
(** [add s k] inserts [k] and returns [true] when no key already in [s]
    is equivalent to it; otherwise it leaves [s] unchanged and returns
    [false]. *)

val mem : 'a classes -> 'a key -> bool
(** Is some key of the set equivalent to this one? Read-only. *)

val run_stats : unit -> stats
(** Totals over every key and comparison, scoped to the ambient
    telemetry run (counters [canon.*]) — what [locald --stats] and the
    bench JSON surface. [Telemetry.new_run] restarts the tally. *)

(** Canonical keys for rooted labelled views, optionally memoised.

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
    and the edges as sorted [int] codes [a * n + b] ([a < b]). With the
    cache on, canonicalising an equal extraction again is a hash lookup
    in the memo table.

    The fingerprint alone is a poor bucket key for discrete views: their
    refinement is renumbered [0..n-1], so the fingerprint carries only
    (centre rank, order, size) and thousands of distinct views share a
    few hundred buckets. {!classes} is the set to deduplicate with: it
    buckets exact keys by their canonical form, so each insertion costs
    about one comparison.

    Transparent-fallback contract: whenever the canonical route cannot
    decide exactly (non-discrete refinement), [equivalent] falls back
    to {!Locald_graph.Iso.views_isomorphic}; with the cache on or off
    the answers are identical (property-tested). [hash] must respect
    [equal] (equal labels hash equally), the same contract as
    [Iso.view_signature]. All entry points on ['a t] are thread-safe;
    a {!classes} set has a single writer. *)

open Locald_graph

type 'a t

type 'a key

type stats = {
  hits : int;      (** memo hits *)
  misses : int;    (** canonicalisations actually performed *)
  exact : int;     (** equivalence decided by canonical-form equality *)
  fallback : int;  (** equivalence decided by the backtracking search *)
}

val create :
  ?cache:bool -> ?hash:('a -> int) -> equal:('a -> 'a -> bool) -> unit -> 'a t
(** [cache:false] disables the memo table (every [key] recanonicalises)
    without changing any answer. Use it when each view is keyed once:
    the memo then never hits and only retains views. [hash] defaults to
    [Hashtbl.hash]. *)

val key : 'a t -> 'a View.t -> 'a key

val fingerprint : 'a key -> int
(** Iso-invariant: equal for isomorphic views; equal to
    [Iso.view_signature hash view]. *)

val view : 'a key -> 'a View.t

val exact : 'a key -> bool
(** Did canonicalisation produce an exact form (discrete refinement)? *)

val equivalent : ?exact_threshold:int -> 'a t -> 'a key -> 'a key -> bool
(** Rooted-isomorphism test via the keys: fingerprint filter, then
    canonical-form equality when both keys are exact, else the
    backtracking fallback. Views larger than [exact_threshold] are
    compared by fingerprint, order and size alone — the historical
    big-view dedupe regime of [Gmr] (which can keep spurious
    duplicates but never lose a class). *)

val isomorphic : 'a t -> 'a View.t -> 'a View.t -> bool
(** [equivalent] over freshly computed keys; agrees with
    [Iso.views_isomorphic equal] whenever [exact_threshold] is not in
    play. *)

(** {1 Sets of keys up to equivalence} *)

type 'a classes

val classes : ?exact_threshold:int -> 'a t -> 'a classes
(** An empty set of keys of [t], compared with
    [equivalent ?exact_threshold t]. An exact key within the threshold
    is bucketed by a hash of its canonical form (centre rank, label
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
(** Totals over every table, scoped to the ambient telemetry run
    (counters [canon.*]) — what [locald --stats] and the bench JSON
    surface. [Telemetry.new_run] restarts the tally. *)

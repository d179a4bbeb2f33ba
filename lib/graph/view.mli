(** Rooted local views: the structure [(G, x, Id) |> B(v, t)] that a
    node [v] sees after [t] communication rounds in the LOCAL model.

    A view is an induced ball, re-indexed to [0 .. k-1], with a
    distinguished centre, the node labels, and optionally the node
    identifiers. Id-oblivious algorithms receive views with
    [ids = None].

    {b Access monitoring.} The accessor functions of this module
    ([center_id], [id], [ids], [label], [neighbours], ...) are the
    sanctioned way for a local algorithm to read its view, and they are
    instrumented: when a {!monitor} is installed (see
    [Locald_analysis.Trace]) every read is reported together with the
    accessed node, its distance from the centre, and — for identifier
    reads — the {e provenance} of the identifier array (whether it
    came from the run's input assignment or was synthesised locally,
    e.g. by the simulation [A*] re-assigning ids before re-deciding).
    Reads through the raw record fields bypass the monitor; the
    [locald analyze] rule [naked-ids-access] therefore bans [.ids] field
    access outside [lib/graph] and [lib/analysis], and every function
    here and in {!Dot} that reads id values ({!fingerprint},
    {!equal_repr}, {!pp}, [Dot.of_view]) reports them, making
    identifier reads exhaustively mediated. The read-adaptive decide
    cache of [Locald_local.Runner] relies on that for soundness. *)

type 'a t = private {
  center : int;           (** index of the view's root *)
  radius : int;           (** the horizon [t] it was extracted at *)
  graph : Graph.t;        (** induced ball, re-indexed *)
  labels : 'a array;      (** local inputs *)
  ids : int array option; (** identifiers, or [None] when oblivious *)
}

exception No_ids of string
(** Raised when an identifier accessor is applied to a view that
    carries no identifiers ([ids = None]) — i.e. an algorithm that is
    not Id-oblivious was run in the Id-oblivious model. The payload
    names the accessor and, when the caller supplied it (see
    {!Locald_local.Runner}), the offending algorithm. *)

(** {1 Access monitoring} *)

(** One observed read of the view, as reported to the installed
    monitor. [depth] is the node's distance from the view's centre;
    whole-view reads (e.g. {!order}) carry [node = None] and
    [depth = 0] and do not count towards per-node depth statistics. *)
type access =
  | Id_read of { node : int; depth : int; id : int; input : bool }
      (** a single identifier was read; [input] is true when the id
          array has input provenance (per the monitor's classifier) *)
  | Ids_read of { input : bool }
      (** the whole identifier array was read at once *)
  | Label_read of { node : int; depth : int }
  | Structure_read of { node : int option; depth : int }

type monitor = {
  input_ids : int array -> bool;
      (** provenance classifier: does this (physical) id array carry
          the run's input assignment? Synthetic arrays — built by
          {!reassign_ids} callers such as the simulation [A*] — should
          classify as [false]. *)
  emit : access -> unit;
}

val with_monitor : monitor -> (unit -> 'r) -> 'r
(** Install the monitor for the calling domain for the duration of the
    thunk (exception-safe, restores any previously installed monitor).
    Monitors are domain-local: parallel certification installs one per
    work item and they do not interfere. *)

val monitored : unit -> bool
(** Is a monitor installed on the calling domain? *)

(** {1 Construction} *)

val extract : ?ids:int array -> 'a Labelled.t -> center:int -> radius:int -> 'a t
(** [extract ?ids lg ~center ~radius] is the view of node [center] in
    [lg] at horizon [radius]. When [ids] is given it must assign a
    distinct identifier to every node of [lg]; for efficiency only the
    restriction to the ball is re-validated here (global injectivity
    is the identifier layer's invariant).
    @raise Graph.Invalid_graph on a malformed id assignment. *)

val extract_mapped :
  ?ids:int array -> 'a Labelled.t -> center:int -> radius:int -> 'a t * int array
(** Like {!extract}, but also returns the (sorted) array mapping
    view-local indices back to the original node numbers — what a
    caller needs to re-attach a fresh id assignment to a pre-extracted
    view without re-extracting the ball. *)

type 'a lender
(** Spare label and id arrays for the views {!with_extract} builds on
    big balls. One lender may serve every domain of a [Pool.map]: a
    mutex guards its spares. It keeps at most a few of each kind, and
    nothing outside it holds them, so they die with the lender. *)

val lender : unit -> 'a lender

val with_extract :
  'a lender ->
  ?ids:int array ->
  'a Labelled.t ->
  center:int ->
  radius:int ->
  ('a t -> 'r) ->
  'r
(** [with_extract lender ?ids lg ~center ~radius f] is [f view] for a
    view {!equal_repr} to [extract ?ids lg ~center ~radius], whose graph
    is {e borrowed}: it lives in per-domain buffers that later borrowed
    extractions overwrite, so no graph is allocated. The contract:
    - the view and its graph are valid only inside [f]. They must never
      be returned, stored, used as (or in) a memo key, or marshalled;
      a caller whose view may escape uses {!extract};
    - a [with_extract] nested inside [f] on the same domain falls back
      to an owned extraction, and an owned extraction inside [f] never
      touches the borrowed buffers;
    - the labels and the restricted [ids] array have exactly as many
      entries as the ball has nodes. For a ball of more than 256 nodes
      (the minor heap takes arrays of at most 256 words) both are lent
      by [lender]: spares of that exact size, refilled and valid only
      inside [f], so consecutive views may share them. Smaller balls
      get fresh arrays. A lent array is never in two live views, so
      physical equality with the view's ids array still identifies the
      input assignment (certification's provenance);
    - the buffers and lent arrays are released when [f] returns or
      raises;
    - it counts towards {!extraction_count}.
    @raise Graph.Invalid_graph as {!extract}. *)

val extraction_count : unit -> int
(** Total ball extractions, owned and borrowed, performed so far (all
    domains). Used by tests to pin that hoisted decision paths do
    per-assignment work that does not scale with view extraction. *)

val of_parts :
  ?ids:int array -> center:int -> radius:int -> 'a Labelled.t -> 'a t
(** Wrap an already-extracted ball (used by generators that enumerate
    syntactically possible views, e.g. the neighbourhood generator [B]
    of Section 3). [center] must lie in the graph and every node must
    be within [radius] of it. *)

val strip_ids : 'a t -> 'a t
(** Forget the identifiers: what an Id-oblivious algorithm sees. *)

(** {1 Instrumented accessors} *)

val order : 'a t -> int
(** Number of nodes of the ball (a whole-view structure read). *)

val center_label : 'a t -> 'a

val center_id : 'a t -> int
(** @raise No_ids if the view carries no ids. *)

val id : 'a t -> int -> int
(** [id view v] is the identifier of view node [v].
    @raise No_ids if the view carries no ids.
    @raise Invalid_argument if [v] is out of range. *)

val ids : 'a t -> int array option
(** The whole identifier array (recorded as a bulk id read when
    present). The returned array must not be mutated. *)

val has_ids : 'a t -> bool
(** Does the view carry identifiers? Observing {e presence} reveals
    nothing about the assignment, so no id read is recorded. *)

val label : 'a t -> int -> 'a
(** [label view v] is the input label of view node [v]. *)

val neighbours : 'a t -> int -> int array
(** [neighbours view v] is a fresh array of the ball-local neighbours
    of [v] (a structure read at [v]'s depth). Code that walks every
    node's neighbours should prefer {!Graph.neighbour},
    {!Graph.iter_neighbours} and its siblings on [view.graph], which
    allocate nothing. *)

val degree : 'a t -> int -> int

val dist_from_center : 'a t -> int array
(** Distance of each view node from the centre (a whole-view structure
    read). *)

(** {1 Transformations} *)

val map_labels : ('a -> 'b) -> 'a t -> 'b t

val mapi_labels : (int -> 'a -> 'b) -> 'a t -> 'b t
(** Like {!map_labels} with the view-local node index — e.g. folding a
    per-node decoration array into the labels before canonicalising a
    decorated view. *)

val reassign_ids : 'a t -> int array -> 'a t
(** Replace the id assignment (must be injective over the view). The
    new array is whatever the caller supplies; a monitor's
    [input_ids] classifier decides its provenance. *)

val equal_repr : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** Equality of concrete representations; use {!Iso.views_isomorphic}
    for equality up to isomorphism. When it compares two id arrays it
    reports a bulk id read of each to an installed monitor. *)

val fingerprint : ('a -> int) -> 'a t -> int
(** [fingerprint hash_label view] is a structural digest of the {e
    decorated} view: centre, radius, adjacency, labels (through
    [hash_label]) and the identifier decoration when present. It is the
    hash companion of {!equal_repr} — [equal_repr eq a b] implies equal
    fingerprints whenever [eq x y] implies [hash_label x = hash_label y]
    — and is what memo tables keyed by concrete decorated views should
    hash with. It is {e not} an isomorphism invariant. A view's ids,
    when present, are reported to an installed monitor as one bulk id
    read; its structure and label reads are not reported. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
(** Prints the ids, when present, as one bulk id read. *)

(** Ball-local assignment quotient for exhaustive enumeration.

    By the locality correspondence, a node's output under a global id
    assignment depends only on the assignment's restriction to the
    node's ball. Exhaustive quantification can therefore scan, per node
    [v], the [perm ~bound ~k:(ball size)] distinct injective
    restrictions instead of the [perm ~bound ~k:n] global assignments —
    and since (for [bound >= n]) every injective restriction extends to
    a global assignment, nothing is lost: a per-node violation
    reconstructs to a concrete global witness with {!extend}.

    This module is policy-free: it enumerates, counts and reconstructs;
    the decision layers ([Locald_decision.Decider],
    [Locald_local.Oblivious]) own the soundness conditions under which
    the quotient replaces the naive loop. *)

open Locald_graph

val perm : bound:int -> k:int -> int
(** Falling factorial [bound * (bound-1) * ... * (bound-k+1)] — the
    number of injective k-tuples over [{0..bound-1}]; [0] when
    [k > bound]. Unchecked native-int arithmetic: callers bound their
    inputs (the exhaustive paths already enumerate streams of this
    length, so overflow is beyond reach in practice). *)

val choose : bound:int -> k:int -> int
(** Binomial coefficient; the size of each order-type class. *)

val injections : bound:int -> k:int -> int array Seq.t
(** All injective k-tuples over [{0..bound-1}] in lexicographic order —
    the restriction-stream counterpart of
    [Locald_local.Ids.enumerate_injections], and in the same order, so
    the two streams agree on which violation is "first". Arrays are
    fresh. *)

val unrank : bound:int -> k:int -> int -> int array
(** [unrank ~bound ~k rank] is the [rank]-th tuple of {!injections}'s
    lexicographic order, computed directly by falling-factorial index
    arithmetic (no enumeration) — the partition primitive of the
    sharded exhaustive runs: rank ranges split the stream without any
    shard depending on another's traversal.
    @raise Invalid_argument unless [0 <= rank < perm ~bound ~k]. *)

val injections_from : bound:int -> k:int -> start:int -> int array Seq.t
(** The suffix of {!injections} beginning at rank [start]: the tuples
    of ranks [start, start+1, ..., perm ~bound ~k - 1] in order, each
    freshly allocated. [injections_from ~start:0] enumerates the same
    tuples in the same order as [injections]. The sequence is
    persistent. @raise Invalid_argument unless
    [0 <= start <= perm ~bound ~k]. *)

val for_all_injections : bound:int -> k:int -> (int array -> bool) -> bool
(** [for_all_injections ~bound ~k f] applies [f] to every injective
    k-tuple over [{0..bound-1}] in the same lexicographic order as
    {!injections}, stopping at (and returning) the first [false];
    vacuously [true] when [k > bound]. Unlike {!injections} the
    callback receives a {e scratch} array overwritten between calls —
    allocation-free, for the hot quotient scans; copy it to retain a
    tuple. *)

val order_representatives : k:int -> int array Seq.t
(** One representative per order type: the permutations of [{0..k-1}]
    (each order-type class over a larger [bound] contains
    [choose ~bound ~k] value-sets and is represented by its rank
    pattern). Sound as a quotient only for order-invariant deciders —
    see [Locald_runtime.Memo.Order_type]. *)

val extend : n:int -> bound:int -> back:int array -> int array -> int array
(** [extend ~n ~bound ~back r] is the global assignment over [n] nodes
    that restricts to [r] on the ball [back] (view-local index [i] maps
    to global node [back.(i)], which receives id [r.(i)]) and gives
    every remaining node the smallest unused ids in ascending node
    order — a fixed completion, so reconstructed witnesses are
    deterministic. Requires [bound >= n].
    @raise Invalid_argument on a non-injective or out-of-range [r]. *)

val distinct_classes :
  ('a * int) Canon.t -> 'a View.t -> int array Seq.t -> int
(** [distinct_classes dc view decos] is the number of decorated-view
    orbits among the id-decorations [decos] of [view]: each decoration
    is folded into the labels ({!Locald_graph.View.mapi_labels}) and
    the derived canoniser's keys are collected into a {!Canon.classes}
    set. Reporting and property-test grade — the hot quotient scans
    count classes arithmetically. *)

(** {1 Run-scoped scan accounting}

    The quotient paths record how many restriction classes each scan
    enumerated, into the ambient telemetry run (counter
    [orbit.scanned]); bench rows surface the total as [orbit_classes]
    and [Telemetry.new_run] starts a fresh tally. *)

val scanned : unit -> int
val add_scanned : int -> unit

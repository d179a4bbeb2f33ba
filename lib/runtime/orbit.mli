(** Ball-local assignment quotient for exhaustive enumeration.

    By the locality correspondence, a node's output under a global id
    assignment depends only on the assignment's restriction to the
    node's ball. Exhaustive quantification can therefore scan, per node
    [v], the [perm ~bound ~k:(ball size)] distinct injective
    restrictions instead of the [perm ~bound ~k:n] global assignments.

    This module is policy-free: it enumerates and counts; the decision
    layer ([Locald_decision.Decider]) owns the soundness conditions
    under which the quotient replaces the naive loop. *)

val perm : bound:int -> k:int -> int
(** Falling factorial [bound * (bound-1) * ... * (bound-k+1)] — the
    number of injective k-tuples over [{0..bound-1}]; [0] when
    [k > bound]. Unchecked native-int arithmetic: callers bound their
    inputs (the exhaustive paths already enumerate streams of this
    length, so overflow is beyond reach in practice). *)

val unrank : bound:int -> k:int -> int -> int array
(** [unrank ~bound ~k rank] is the [rank]-th injective k-tuple over
    [{0..bound-1}] in lexicographic order, computed directly by
    falling-factorial index arithmetic (no enumeration) — the
    partition primitive of the sharded exhaustive runs: rank ranges
    split the stream without any shard depending on another's
    traversal. Global assignments ([Locald_local.Ids.injection_at]) and
    ball restrictions share this order, so the two streams agree on
    which violation is "first".
    @raise Invalid_argument unless [0 <= rank < perm ~bound ~k]. *)

val next_injection : bound:int -> int array -> bool array -> bool
(** [next_injection ~bound r used] steps the injective tuple [r] over
    [{0..bound-1}] to its successor in lexicographic order, in place;
    [used] has length [bound] and marks exactly the values in [r], and
    the step keeps it so. Returns [false] exactly
    when [r] is the last tuple, leaving [r] unchanged and [used]
    cleared. Allocates nothing: the sharded range evaluator unranks a
    range's first tuple once with {!unrank} and steps from there. *)

val for_all_injections : bound:int -> k:int -> (int array -> bool) -> bool
(** [for_all_injections ~bound ~k f] applies [f] to every injective
    k-tuple over [{0..bound-1}] in lexicographic order ({!unrank}'s),
    stopping at (and returning) the first [false]; vacuously [true]
    when [k > bound]. The callback receives a {e scratch} array
    overwritten between calls — allocation-free, for the hot quotient
    scans; copy it to retain a tuple. *)

(** {1 Run-scoped scan accounting}

    The quotient path records how many restriction classes each scan
    enumerated, into the ambient telemetry run (counter
    [orbit.scanned]); bench rows surface the total as [orbit_classes]
    and [Telemetry.new_run] starts a fresh tally. *)

val scanned : unit -> int
val add_scanned : int -> unit

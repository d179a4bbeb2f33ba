(** Running local algorithms as deciders, and evaluating their
    correctness over identifier assignments.

    A local algorithm [A] decides a property [P] when, for {e every}
    valid identifier assignment, it accepts every yes-instance and
    rejects every no-instance. Correctness is therefore quantified
    over assignments: [evaluate] samples (or exhausts) assignments
    valid under a regime and tallies the verdicts.

    [evaluate] and [evaluate_exhaustive] decide batches of assignments
    on the {!Locald_runtime.Pool}; the algorithm's [decide] function
    must therefore be safe to call from several domains at once (pure
    functions and per-call local state are fine). Sampled assignments
    are drawn sequentially before each batch, exhaustive ranks are
    split into sub-ranges fixed by the range alone, and views are
    pre-extracted once per instance ({!Locald_local.Runner.prepare}),
    so results — including the [failure] witness, which is the first
    wrong assignment in stream order — are identical at any job
    count and at any simulator backend (the [?backend] of each entry
    point, default [Sync]; the fault-injected entry points below
    always use the engine their plan semantics are defined over).

    Every decide of every entry point here except {!decide},
    {!decide_oblivious} and the fault-injected ones goes through the
    preparation's one read-adaptive decide cache
    ({!Locald_local.Runner.decide}): the sampled assignments, the range
    walks and the quotient scan share it, so the scan warms the naive
    fallback. A decide that misses runs once under the access monitor;
    later restrictions that agree on the id slots it read reuse its
    output. There is no uncached mode: test_decision's oracle checks
    these entry points against folds of {!decide}'s direct engine over
    the same assignments. *)

open Locald_graph
open Locald_local

val decide :
  ?backend:Backend.t ->
  ('a, bool) Algorithm.t -> 'a Labelled.t -> ids:Ids.t -> Verdict.t
(** One assignment. [backend] (default [Sync]) selects the simulator —
    verdicts are backend-independent by the cross-backend pin. *)

val decide_oblivious : ('a, bool) Algorithm.oblivious -> 'a Labelled.t -> Verdict.t

type evaluation = {
  instance : string;
  n : int;
  expected : bool;       (** is the instance in the property? *)
  assignments : int;     (** assignments tried *)
  correct : int;
  wrong : int;
  failure : (Ids.t * Verdict.t) option;  (** an assignment that went wrong *)
}

val evaluate :
  ?backend:Backend.t ->
  rng:Random.State.t ->
  regime:Ids.regime ->
  assignments:int ->
  ('a, bool) Algorithm.t ->
  expected:bool ->
  instance:string ->
  'a Labelled.t ->
  evaluation
(** Random assignments drawn from the regime. *)

val evaluate_exhaustive :
  ?backend:Backend.t ->
  ?memo_capacity:int ->
  bound:int ->
  ('a, bool) Algorithm.t ->
  expected:bool ->
  instance:string ->
  'a Labelled.t ->
  evaluation
(** Every injective assignment into [0 .. bound-1] (small instances
    only). The all-accept question is first decided on the ball-local
    assignment quotient — per node, every injective restriction of its
    ball ({!Locald_runtime.Orbit.injections}) — which is exhaustive
    over far fewer decides; the tallies then follow by counting
    arithmetic. Whenever any node rejects any restriction, evaluation
    falls back transparently to the naive assignment loop (with the
    decide cache already warm), so the result — counts, and the
    first-failure witness — is byte-identical in every case to
    {!evaluate_exhaustive_range} over every rank, which is that
    fallback. [memo_capacity] bounds the implicit preparation's decide
    cache (default unbounded). *)

type range_evaluation = {
  rv_lo : int;
  rv_hi : int;
  rv_correct : int;
  rv_wrong : int;
  rv_failure : (int * Ids.t * Verdict.t) option;
      (** first wrong assignment in the range, with its {e global}
          lexicographic rank *)
}

val evaluate_exhaustive_range :
  ?prep:('a, bool) Runner.prepared ->
  ?backend:Backend.t ->
  ?memo_capacity:int ->
  bound:int ->
  lo:int ->
  hi:int ->
  ('a, bool) Algorithm.t ->
  expected:bool ->
  'a Labelled.t ->
  range_evaluation
(** The assignments of lexicographic ranks [\[lo, hi)] of
    {!Locald_local.Ids.enumerate_injections}'s order only — the
    range-restricted entry point the sharded exhaustive runs
    partition on. Any family of ranges that tiles [\[0, total)] sums
    (counts) and minimises (failure rank) to exactly
    [evaluate_exhaustive]'s answer.

    The range is split into 512-rank sub-ranges, one
    {!Locald_runtime.Pool.map} task each. A task unranks its first
    assignment once ({!Locald_runtime.Orbit.unrank}), steps to each
    next one in place ({!Locald_runtime.Orbit.next_injection}), decides
    every node into one reused output array through one
    {!Locald_local.Runner.task}, and builds its first failure's witness
    from that array. A rank whose decides all hit the cache allocates
    nothing, and each task adds its decide and cache counts to the run
    once. Pass [prep] to share one
    prepared-view/cache structure across many ranges within a process;
    without it, [backend] and [memo_capacity] configure the implicit
    preparation as in {!evaluate_exhaustive}.
    @raise Invalid_argument on a range outside [\[0, total\]]. *)

val all_correct : evaluation -> bool

val pp_evaluation : Format.formatter -> evaluation -> unit

(** {1 Fault-injected decision}

    The same decision semantics under a {!Faults.plan}: nodes that
    cannot answer soundly contribute [Unknown], and a run with any
    unknown is tallied as {e degraded} — neither correct nor wrong —
    so fault-induced failures are never mistaken for separations. *)

val decide_faulty :
  plan:Faults.plan ->
  ?cost:('a Locald_graph.View.t -> int) ->
  ('a, bool) Algorithm.t ->
  'a Locald_graph.Labelled.t ->
  ids:Ids.t ->
  Verdict.degraded * Fault_runner.stats

type fault_evaluation = {
  f_instance : string;
  f_n : int;
  f_expected : bool;
  f_runs : int;
  f_correct : int;       (** decisive runs matching the expectation *)
  f_wrong : int;         (** decisive runs contradicting it *)
  f_degraded : int;      (** runs with at least one [Unknown] node *)
  f_unknown_nodes : int; (** total unknown nodes across runs *)
  f_dropped : int;       (** total messages lost across runs *)
  f_crashed : int;       (** total crash-stopped nodes across runs *)
}

val evaluate_faulty :
  rng:Random.State.t ->
  regime:Ids.regime ->
  runs:int ->
  plan:Faults.plan ->
  ?cost:('a Locald_graph.View.t -> int) ->
  ('a, bool) Algorithm.t ->
  expected:bool ->
  instance:string ->
  'a Locald_graph.Labelled.t ->
  fault_evaluation
(** Repeated faulted runs: run [k] uses fault seed [plan.seed + k] and
    a fresh identifier assignment sampled from the regime, so the whole
    evaluation is reproducible from [rng] and [plan.seed]. *)

val pp_fault_evaluation : Format.formatter -> fault_evaluation -> unit

(** Deterministic, seed-driven fault plans for the LOCAL gossip
    simulator.

    The paper's [(not C)] regime allows arbitrary (even non-total)
    node behaviour, and its randomised [(p, q)]-deciders tolerate
    bounded error; this module supplies the adversary those results
    are measured against: per-round message loss and duplication,
    crash-stop node failures, and per-node fuel budgets for the decide
    step. A plan is {e pure data} — every fault coin is a hash of
    [(seed, kind, round, src, dst)] — so a fixed seed reproduces the
    same faulted trace byte-for-byte, independent of evaluation
    order. *)

type plan = {
  seed : int;                (** fault-coin seed *)
  drop : float;              (** per-message loss probability, in [0, 1] *)
  duplicate : float;         (** per-message duplicate-delivery probability *)
  crashes : (int * int) list;
      (** crash-stop failures [(node, round)]: from the start of
          [round] (1-based) the node neither sends nor computes *)
  fuel : int option;         (** per-node budget for the decide step
                                 (measured by the runner's cost model);
                                 [None] = unmetered *)
  retries : int;             (** extra re-gossip rounds appended after
                                 the horizon's [radius + 1], to recover
                                 knowledge lost to drops *)
}

val empty : plan
(** No faults, no retries: the plan under which {!Fault_runner.run}
    decides every node with {!Runner.run}'s output. *)

val make :
  ?seed:int ->
  ?drop:float ->
  ?duplicate:float ->
  ?crashes:(int * int) list ->
  ?fuel:int ->
  ?retries:int ->
  unit ->
  plan
(** Validated construction; every field defaults to its {!empty} value.
    @raise Invalid_argument on probabilities outside [0, 1], negative
    retries or fuel, or crash rounds below 1. *)

val validate : plan -> plan
(** Re-check a hand-built record. @raise Invalid_argument as {!make}. *)

val is_empty : plan -> bool
(** No faults configured ([retries] alone does not count: extra
    fault-free gossip rounds cannot change any node's extracted view). *)

val crash_round : plan -> int -> int option
(** [crash_round p v] is the earliest round at which [v] crashes. *)

val drops : plan -> round:int -> src:int -> dst:int -> bool
(** Does the round-[round] message [src -> dst] get lost? Pure in all
    arguments. *)

val duplicates : plan -> round:int -> src:int -> dst:int -> bool
(** Is the round-[round] message [src -> dst] delivered twice?
    (Idempotent merges make this invisible to outputs — it is metered
    in the bandwidth stats.) *)

val pp : Format.formatter -> plan -> unit

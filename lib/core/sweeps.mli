(** The shardable exhaustive workloads.

    A sweep workload is an exhaustive evaluation whose search space is
    addressed by lexicographic assignment rank
    ({!Locald_local.Ids.injection_at}), so it can be partitioned by
    {!Locald_runtime.Shard} across OS processes and merged exactly.
    These are the workloads the [locald shard] / [merge] / [sweep]
    subcommands, the serve daemon and the CI kill-resume smoke test
    operate on. They keep their own type, apart from {!Registry}'s
    pinned bench workloads: sharding and serving need a rank geometry
    and range evaluation, which a coverage or certify run has not.

    The BENCH exhaustive-decider pins are {!exhaustive_decider} runs,
    over the instance and decider of the ["exhaustive-decider"] sweep,
    so that sweep merges to the committed pin by construction. The
    sweep ["certify-gmr"] is unrelated to the BENCH_quick row of the
    same name (a different instance and digest); both names are pin
    keys. *)

type geometry = {
  g_n : int;      (** nodes of the instance *)
  g_bound : int;  (** ids are drawn from [0 .. g_bound - 1] *)
  g_total : int;  (** injective assignments = perm (g_bound, g_n) *)
}

type workload = {
  w_name : string;
  w_description : string;
  w_expected : bool;  (** is the instance in the property? *)
  w_chunk : int;      (** default checkpoint chunk size, in ranks *)
  w_geometry : unit -> geometry;
  w_eval :
    ?backend:Locald_local.Backend.t ->
    ?memo_capacity:int ->
    unit ->
    lo:int -> hi:int -> Locald_runtime.Shard.chunk_result;
      (** [w_eval ()] builds the instance, prepared views and
          read-adaptive decide cache ({!Locald_local.Runner.prepare})
          once; the returned closure evaluates rank ranges against
          them, and any domain may call it. Single-process state:
          build one per shard process (or one per serve-daemon engine,
          shared across requests — the decide cache is the
          cross-request cache, so long-lived holders should pass
          [memo_capacity], a bound on its leaves).

          The optional config is {e per-request}: [backend]
          overrides the workload's construction-time backend (else
          [Sync]). Workloads without a backend axis or a decide cache
          (the seed-ranked curve, the certify sweep) accept and ignore
          it; every configuration is digest-transparent. *)
  w_unsharded :
    ?backend:Locald_local.Backend.t ->
    unit ->
    Locald_decision.Decider.evaluation;
      (** The reference unsharded run ([evaluate_exhaustive], quotient
          and all) the merged result must reproduce, under the same
          per-request configuration rules as [w_eval]. *)
}

val all : workload list

val names : string list

val find : string -> workload option

val default_name : string
(** ["exhaustive-decider"]. *)

val exhaustive_decider :
  ?backend:Locald_local.Backend.t ->
  ?bound:int ->
  unit ->
  Locald_decision.Decider.evaluation
(** The instance and decider of ["exhaustive-decider"] quantified over
    every injective assignment into [0 .. bound - 1]
    ({!Locald_decision.Decider.evaluate_exhaustive}, whose [backend]
    default applies). At the default bound (the instance's
    order, 8) this is the workload's [w_unsharded] run and the
    BENCH_quick pin; at [bound = 10] it is the BENCH_scale pin. *)

val digest : Locald_decision.Decider.evaluation -> string
(** The pinned digest of an evaluation:
    {!Locald_runtime.Shard.result_digest} over its counts. *)

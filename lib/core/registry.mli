(** Every run the reproduction declares, each exactly once.

    {b Experiments} are the paper's artefacts (Table 1's cells, Figures
    1–3, Corollary 1, ...; arXiv 1302.2570): the [locald] subcommands
    of the same names, [locald all], [locald metrics] and the
    determinism batteries all iterate {!experiments}.

    {b Pinned workloads} are the bench rows BENCH_quick.json and
    BENCH_scale.json pin by digest: [bench --json / --check] run the
    {!Quick} tier, [bench --scale / --check-scale] the {!Scale} tier,
    and the telemetry and cross-backend batteries rerun the quick tier.
    The exhaustive-decider rows evaluate {!Sweeps.exhaustive_decider},
    so the sweep of that name merges to their pin by construction.

    Nothing is built when the module loads: instances and machines sit
    behind [lazy] or inside the run thunks. *)

type experiment = {
  e_name : string;  (** the CLI subcommand *)
  e_doc : string;   (** its one-line help *)
  e_heavy : bool;
      (** even the quick run takes tens of seconds (faults: about 23 s
          at [--jobs 1]), so test_experiments' printer pass skips it *)
  e_run :
    ?backend:Locald_local.Backend.t ->
    quick:bool ->
    seed:int option ->
    unit ->
    (unit -> unit) * string;
      (** Run the experiment: a printer for its rows and
          {!Locald_runtime.Shard.digest} of them. Experiments without a
          random state, and [ablations] (one draw from a fixed seed),
          ignore [seed]; [backend] reaches the drivers that run
          deciders through the simulator (table1, oi, warmups; the
          engine default applies when omitted), and the others ignore
          it.
          @raise Failure naming the experiment and the row when a
          check fails: a row that the experiment's [Report] failure
          predicate names (table1, fig1, fig2, fig3, diagonal,
          construction, oi, hereditary, warmups), or a failed
          ablation check. *)
}

val experiments : experiment list
(** In paper order, then [ablations]; [faults] last. *)

val find_experiment : string -> experiment option

type tier = Quick | Scale

type pinned = {
  p_name : string;  (** the pin key without [@jN] and backend suffix *)
  p_tier : tier;
  p_hits_gated : bool;  (** [--check] requires nonzero memo hits *)
  p_wall_gated : bool;
      (** [--check] requires the [@j1] row within 2x (+50ms) of its
          pinned wall time *)
  p_run : ?backend:Locald_local.Backend.t -> unit -> int * string;
      (** Run on the default pool: the problem size and the result
          digest. [backend] reaches the exhaustive-decider evaluations
          (the engine default applies when omitted); the other
          workloads ignore it. *)
}

val workloads : pinned list

val tier_workloads : tier -> pinned list

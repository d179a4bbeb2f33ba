(** Plain-text rendering of the experiment records for the [locald]
    CLI. *)

val print_rule : unit -> unit
val print_table1 : Experiments.cell_result list -> unit
val print_fig1 : Experiments.fig1_row list -> unit
val print_fig2 : Experiments.fig2_row list -> unit
val print_fig3 : Experiments.fig3_row list -> unit
val print_corollary1 : Experiments.corollary1_row list -> unit
val print_warmups : Experiments.warmup_row list -> unit
val print_p3 : Experiments.p3_row list -> unit
val print_fuel_diagonal : Experiments.diagonal_row list -> unit
val print_hereditary : Experiments.hereditary_row list -> unit
val print_oi : Experiments.oi_row list -> unit
val print_construction : Experiments.construction_row list -> unit
val print_faults : Experiments.fault_row list -> unit

(** {1 Row failures}

    One predicate per experiment whose printer marks a failed check:
    [Some] names the row and the condition the printer marks
    ([FAILED]/[FAIL], [EXPECTED FULL BUT NOT], [UNEXPECTEDLY FULL],
    [MISSED], [NO], [UNEXPECTED]); [None] for a row that holds.
    {!Registry.experiment} applies them, so a failed check fails the
    run. *)

val table1_failure : Experiments.cell_result -> string option
val fig1_failure : Experiments.fig1_row -> string option
val fig2_failure : Experiments.fig2_row -> string option
val fig3_failure : Experiments.fig3_row -> string option
val warmups_failure : Experiments.warmup_row -> string option
val diagonal_failure : Experiments.diagonal_row -> string option
val hereditary_failure : Experiments.hereditary_row -> string option
val oi_failure : Experiments.oi_row -> string option
val construction_failure : Experiments.construction_row -> string option

val print_ablations : Experiments.ablation_row list -> unit
(** One section per ablation, headed before its first row. Prints no
    timings: the rows are byte-identical across runs and job counts. *)

val print_certify : Certify.row list -> unit
(** Per-subject verdicts with witnesses and flags, then a Table-1-shaped
    grid summarising oblivious vs id-dependent counts per cell. Prints
    no timings: the output is byte-identical across runs and job
    counts (asserted by CI). *)

type timing = {
  t_experiment : string;
  t_wall : float;           (** seconds *)
  t_jobs : int;             (** pool size the experiment ran at *)
  t_speedup : float option; (** wall at jobs=1 over this wall, when measured *)
}

val print_timings : timing list -> unit

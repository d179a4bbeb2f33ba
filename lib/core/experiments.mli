(** Experiment drivers regenerating the paper's results table and
    figures. Each driver returns printable records; the [locald] CLI
    renders them ({!Report}). [quick] shrinks parameter
    sets for use in tests.

    See DESIGN.md (experiment index) for the mapping to the paper. *)

open Locald_local

(** {1 T1 — the Section 1.1 results table} *)

type cell_result = {
  cell : string;        (** e.g. "(B, C)" *)
  relation : string;    (** "LD* <> LD" or "LD* = LD" *)
  evidence : (string * bool) list;
      (** named checks; all must hold for the cell's claim *)
}

val table1 :
  ?backend:Backend.t ->
  ?quick:bool ->
  ?seed:int ->
  unit ->
  cell_result list
(** [seed] (here and below) reseeds the experiment's random state —
    threaded from the CLI's global [--seed] option; defaults to the
    historical constant. [backend] (here and below) is the engine
    setting of the decider evaluations
    ({!Locald_decision.Decider.evaluate}, whose default applies); the
    rows do not depend on it. *)

val cell_bc :
  ?backend:Backend.t ->
  ?seed:int -> regime:Ids.regime -> quick:bool -> name:string -> unit ->
  cell_result
(** The two (B, -) separations, parametric in the bound function — pass a
    computable regime for (B, C) and the oracle regime for (B, notC). *)

val cell_nbc : ?seed:int -> quick:bool -> unit -> cell_result
(** The (notB, C) separation via the Section 3 construction. *)

val cell_nbnc :
  ?backend:Backend.t ->
  ?seed:int -> quick:bool -> unit -> cell_result
(** The (notB, notC) equality via the Id-oblivious simulation [A*]. *)

val two_colouring_blaming_decider : unit -> (int, bool) Algorithm.t
(** The (notB, notC) witness decider: on a violated 2-colouring edge,
    the endpoint carrying the {e smaller identifier} takes the blame —
    genuinely Id-dependent node outputs (the certifier exhibits the id
    read), removable by the simulation [A*]. Exposed for the
    certification registry. *)

(** {1 F1 — Figure 1 (layered trees and view coverage)} *)

type fig1_row = {
  arity : int;
  r : int;
  t : int;
  depth : int;           (** [R(r)] *)
  tree_nodes : int;      (** order of [T_r] *)
  small_instances : int; (** |H_r| *)
  covered : int;
  total : int;
  expected_full : bool;  (** does the theory predict full coverage? *)
}

val fig1 : ?quick:bool -> unit -> fig1_row list

(** {1 F2 — Figure 2 (the G(M,r) construction)} *)

type fig2_row = {
  machine : string;
  steps : int;
  output : int;
  table_side : int;
  fragments : int;
  fake_windows : int;   (** glued fragments showing a non-[output] halt *)
  nodes : int;
  edges : int;
  rules_ok : bool;      (** local rules pass everywhere *)
}

val fig2 : ?quick:bool -> unit -> fig2_row list

(** {1 F3 — Figure 3 (the pyramid)} *)

type fig3_row = {
  h : int;
  side : int;
  nodes : int;
  pyramid_overhead : float;  (** nodes / side^2 *)
  grid_diameter : int;
  pyramid_diameter : int;
  genuine_ok : bool;         (** quadtree rules pass on the pyramid *)
  torus_rejected : bool;     (** a torus counterfeit violates them *)
}

val fig3 : ?quick:bool -> unit -> fig3_row list

(** {1 C1 — Corollary 1 (randomised Id-oblivious decider)} *)

type corollary1_row = {
  machine : string;
  n : int;
  expected : bool;
  runs : int;
  success : float;
  theory_bound : float;
      (** [1 - (1 - 1/sqrt n)^n], the paper's lower bound on the
          rejection probability for no-instances (1.0 for
          yes-instances) *)
}

val corollary1 : ?quick:bool -> ?seed:int -> unit -> corollary1_row list

(** {1 P3 — the neighbourhood generator's coverage (property (P3))} *)

type p3_row = {
  machine : string;
  halts_in_window : bool;
  g_classes : int;       (** distinct view classes of [G(M,r)] *)
  b_classes : int;       (** distinct view classes output by [B(M,r)] *)
  g_covered_by_b : int;  (** how many G-classes occur in B *)
  b_covered_by_g : int;
}

val p3 : ?quick:bool -> unit -> p3_row list
(** For machines halting inside the generator's window, [B(N,r)] must
    equal the view set of [G(N,r)] — measured here in both
    directions. *)

(** {1 D — the fuel diagonalisation (why no Id-oblivious candidate works)} *)

type diagonal_row = {
  fuel : int;              (** the candidate's simulation budget *)
  fooling_machine : string;
  fooled : bool;
      (** the candidate accepts the no-instance [G(M,r)] of a machine
          halting with output 1 just beyond its fuel *)
  honest_on_fast : bool;
      (** ... while being correct on machines within its fuel *)
}

val fuel_diagonal : ?quick:bool -> unit -> diagonal_row list

(** {1 K — the constructive side (Section 1.3 context)} *)

type construction_row = {
  task : string;
  n : int;
  ok : bool;
  rounds : int;
  messages : int;
}

val construction : ?quick:bool -> ?seed:int -> unit -> construction_row list
(** Identifiers/coins as symmetry breakers: Cole-Vishkin iteration
    counts stay log*-flat as n grows, Luby's MIS terminates in few
    rounds, and the synchronous gossip engine's message count is
    metered ({!Locald_local.Fault_runner.run} under the empty plan). *)

(** {1 OI — order-invariant algorithms (the Section 1.3 middle model)} *)

type oi_row = { check : string; ok : bool }

val order_invariance :
  ?backend:Backend.t -> ?quick:bool -> ?seed:int -> unit -> oi_row list
(** Identifiers help the Section 2 decider only through magnitude:
    the decider is demonstrably not order-invariant, and its
    rank-normalised OI version wrongly accepts [T_r] — so the
    separation also splits OI from LD under (B). *)

(** {1 H — hereditariness (the Related-Work contrast)} *)

type hereditary_row = {
  property_name : string;
  instance : string;
  hereditary_looking : bool;
  expected_hereditary : bool;
}

val hereditary : ?quick:bool -> ?seed:int -> unit -> hereditary_row list
(** [LD* = LD] was known for hereditary languages; the witness
    properties of both separations are demonstrably non-hereditary,
    and the stock hereditary property shows the test's other side. *)

(** {1 W2 / W3 — the warm-up promise problems} *)

type warmup_row = {
  problem : string;
  setting : string;
  check : string;
  ok : bool;
}

val warmups :
  ?backend:Backend.t ->
  ?quick:bool ->
  ?seed:int ->
  unit ->
  warmup_row list

(** {1 A1–A4 — ablations of the reproduction's design choices} *)

type ablation_row =
  | Fragment_cap of {
      cap : int;
      fragments : int;
      nodes : int;
      edges : int;
      rules_ok : bool;  (** Appendix A rules pass everywhere *)
    }
      (** A1: [G(twofaced3, 1)] at one fragment-collection cap *)
  | Anchor_phases of {
      all_phases : bool;
      fragments : int;
      nodes : int;
      edges : int;
      rules_ok : bool;
    }
      (** A2: the same instance at cap 50, gluing the origin anchor
          phase only or all 36 aligned phases *)
  | Coverage_scaling of {
      r : int;
      depth : int;       (** [R(r)] *)
      tree_nodes : int;  (** order of [T_r] *)
      covered : int;
      total : int;
    }
      (** A3: Figure 1's coverage at arity 1, [t = 1] *)
  | At_scale of {
      r : int;
      tree_nodes : int;       (** order of [T_r] *)
      pprime_accepts : bool;  (** the Id-oblivious [P'] verifier *)
      p_rejects : bool;       (** the [P] decider, one sampled assignment *)
    }
      (** A4: Section 2's binary construction under [f(n) = n] *)

val ablations : ?quick:bool -> unit -> ablation_row list
(** A1 at caps 25–400, A2 with and without all phases, A3 at
    [r ∈ {2,4,8,16,32}], then A4 at [r = 3] (262,143 nodes; [quick]:
    [r = 2], 1,023 nodes).
    @raise Failure naming the ablation and its parameter when a
    [G(M,1)] does not build, its rules fail, the [P'] verifier rejects
    [T_r] or the [P] decider accepts it. *)

(** {1 FT — fault injection (robustness of the deciders)}

    How do the paper's deciders degrade when the LOCAL model itself
    misbehaves? Each row replays a decider under a seeded
    {!Locald_local.Faults.plan} — message drops, duplicate deliveries,
    crash-stop failures, decide-fuel budgets, bounded re-gossip — and
    tallies decisive-correct / decisive-wrong / degraded runs. Subjects:
    the Section 2 tree decider on the Figure 1 instances and the
    Corollary 1 randomised decider on small [G(M,1)] instances. *)

type fault_row = {
  f_scenario : string;                   (** decider under test *)
  f_plan : Faults.plan;                  (** the injected faults *)
  f_eval : Locald_decision.Decider.fault_evaluation;
}

val faults :
  ?quick:bool ->
  ?seed:int ->
  ?drop:float ->
  ?crashes:int ->
  ?fuel:int ->
  ?retries:int ->
  ?runs:int ->
  unit ->
  fault_row list
(** With no overrides, sweeps a default grid of drop rates and retry
    budgets plus crash and fuel axes; [drop]/[crashes]/[fuel]/[retries]
    pin the respective axis to a single CLI-chosen value.
    @raise Invalid_argument, naming the CLI flag, on [crashes < 0] or
    [runs < 1] (checked before any instance is built), and on an
    invalid plan ({!Faults.make}). *)

(* Every run the reproduction declares, each exactly once: the paper's
   experiments and the workloads pinned by digest in BENCH_quick.json
   and BENCH_scale.json. Nothing is built when the module loads —
   instances and machines sit behind [lazy] or inside the run thunks. *)

open Locald_local
open Locald_runtime
module Analysis = Locald_analysis.Analysis

(* ------------------------------------------------------------------ *)
(* The paper's experiments                                             *)
(* ------------------------------------------------------------------ *)

type experiment = {
  e_name : string;
  e_doc : string;
  e_heavy : bool;
  e_run :
    ?backend:Backend.t ->
    ?memo:Memo.mode ->
    quick:bool ->
    seed:int option ->
    unit ->
    (unit -> unit) * string;
}

(* [failure] is the experiment's row-failure predicate (Report's
   [*_failure]): a row it names fails the run with [Failure], as a
   failed ablation check does, so [locald <experiment>], [locald all]
   and the batteries exit non-zero. *)
let experiment ?(heavy = false) ?(failure = fun _ -> None) name doc print
    driver =
  let run ?backend ?memo ~quick ~seed () =
    let rows = driver ?backend ?memo ~quick ~seed () in
    Option.iter
      (fun msg -> failwith (Printf.sprintf "%s: %s" name msg))
      (List.find_map failure rows);
    ((fun () -> print rows), Shard.digest rows)
  in
  { e_name = name; e_doc = doc; e_heavy = heavy; e_run = run }

let experiments =
  [
    experiment "table1" ~failure:Report.table1_failure
      "Regenerate the Section 1.1 results table."
      Report.print_table1 (fun ?backend ?memo ~quick ~seed () ->
        Experiments.table1 ?backend ?memo ~quick ?seed ());
    experiment "fig1" ~failure:Report.fig1_failure
      "Regenerate Figure 1 (layered trees and view coverage)."
      Report.print_fig1 (fun ?backend:_ ?memo:_ ~quick ~seed:_ () ->
        Experiments.fig1 ~quick ());
    experiment "fig2" ~failure:Report.fig2_failure
      "Regenerate Figure 2 (the G(M,r) construction)."
      Report.print_fig2 (fun ?backend:_ ?memo:_ ~quick ~seed:_ () ->
        Experiments.fig2 ~quick ());
    experiment "fig3" ~failure:Report.fig3_failure
      "Regenerate Figure 3 (the pyramid)."
      Report.print_fig3
      (fun ?backend:_ ?memo:_ ~quick ~seed:_ () -> Experiments.fig3 ~quick ());
    experiment "corollary1" "Regenerate the Corollary 1 experiment."
      Report.print_corollary1 (fun ?backend:_ ?memo:_ ~quick ~seed () ->
        Experiments.corollary1 ~quick ?seed ());
    experiment "p3" "Measure the neighbourhood generator's (P3) coverage."
      Report.print_p3 (fun ?backend:_ ?memo:_ ~quick ~seed:_ () ->
        Experiments.p3 ~quick ());
    experiment "diagonal" ~failure:Report.diagonal_failure
      "Run the fuel diagonalisation against Id-oblivious candidates."
      Report.print_fuel_diagonal (fun ?backend:_ ?memo:_ ~quick ~seed:_ () ->
        Experiments.fuel_diagonal ~quick ());
    experiment "construction" ~failure:Report.construction_failure
      "Run the constructive-side experiments (CV, Luby, gossip)."
      Report.print_construction (fun ?backend:_ ?memo:_ ~quick ~seed () ->
        Experiments.construction ~quick ?seed ());
    experiment "oi" ~failure:Report.oi_failure
      "Show that order-invariant algorithms also fail under (B)."
      Report.print_oi (fun ?backend ?memo:_ ~quick ~seed () ->
        Experiments.order_invariance ?backend ~quick ?seed ());
    experiment "hereditary" ~failure:Report.hereditary_failure
      "Check hereditariness of the witness properties."
      Report.print_hereditary (fun ?backend:_ ?memo:_ ~quick ~seed () ->
        Experiments.hereditary ~quick ?seed ());
    experiment "warmups" ~failure:Report.warmups_failure
      "Run the warm-up promise-problem experiments."
      Report.print_warmups (fun ?backend ?memo ~quick ~seed () ->
        Experiments.warmups ?backend ?memo ~quick ?seed ());
    experiment "ablations"
      "Run the ablations A1-A4 of the reproduction's design choices \
       (fragment cap, anchor phases, coverage scaling, Section 2 at scale); \
       fails when a check fails."
      Report.print_ablations (fun ?backend:_ ?memo:_ ~quick ~seed:_ () ->
        Experiments.ablations ~quick ());
    (* Under fault injection the rows embed the seeded plans, so the
       digest pins those too. *)
    experiment ~heavy:true "faults"
      "Measure decider accuracy and degradation under seeded fault \
       injection (message drops, crash-stop failures, fuel budgets)."
      Report.print_faults (fun ?backend:_ ?memo:_ ~quick ~seed () ->
        Experiments.faults ~quick ?seed ());
  ]

let find_experiment name = List.find_opt (fun e -> e.e_name = name) experiments

(* ------------------------------------------------------------------ *)
(* The pinned bench workloads                                          *)
(* ------------------------------------------------------------------ *)

type tier = Quick | Scale

type pinned = {
  p_name : string;
  p_tier : tier;
  p_hits_gated : bool;
  p_wall_gated : bool;
  p_run : ?backend:Backend.t -> ?memo:Memo.mode -> unit -> int * string;
}

let pinned ?(hits_gated = false) ?(wall_gated = false) p_tier p_name p_run =
  { p_name; p_tier; p_hits_gated = hits_gated; p_wall_gated = wall_gated; p_run }

let coverage ~regime ~t () =
  let p = { Tree_instances.regime; arity = 2; r = 2 } in
  let c = Tree_deciders.coverage p ~t in
  ( Bound.tree_size ~arity:2 ~depth:(Tree_instances.depth p),
    Shard.digest
      ( c.Tree_deciders.covered,
        c.Tree_deciders.total_views,
        c.Tree_deciders.uncovered_node ) )

let exhaustive ?backend ?memo ?bound () =
  let e = Sweeps.exhaustive_decider ?backend ?memo ?bound () in
  (e.Locald_decision.Decider.assignments, Sweeps.digest e)

(* Certification workloads report the trace-event count as their
   problem size: wall-clock per traced event is the figure of merit for
   the provenance monitor. *)
let certify ?budget alg instances () =
  let r = Analysis.certify ?budget alg ~instances:(Lazy.force instances) in
  ( r.Analysis.rep_events,
    Shard.digest
      ( Analysis.verdict_name r.Analysis.rep_verdict,
        r.Analysis.rep_views,
        r.Analysis.rep_events,
        r.Analysis.rep_max_depth ) )

let gmr ?(cap = 100) machine =
  let config = { (Gmr.default_config ~r:1) with Gmr.fragment_cap = cap } in
  match Gmr.build ~config ~r:1 machine with
  | Ok t -> t
  | Error _ -> invalid_arg "registry: unbuildable G(M,1)"

let regime = Ids.f_linear_plus 1
let t_r1 = { Tree_instances.regime; arity = 2; r = 1 }
let tree_r1 = lazy [ ("T_r", Tree_instances.big_tree t_r1) ]

let gmr_quick =
  lazy
    [
      ( "G(M,1)",
        (gmr (Locald_turing.Zoo.two_faced ~steps:3 ~real:0 ~fake:1)).Gmr.lg );
    ]

(* Six G(M,1) instances from longer machines: one certify sweep over
   35k traced views, 12x the quick tier's event volume. *)
let gmr_scale =
  lazy
    (let open Locald_turing.Zoo in
     List.map
       (fun (name, m) -> (name, (gmr m).Gmr.lg))
       [
         ("two_faced-s3", two_faced ~steps:3 ~real:0 ~fake:1);
         ("two_faced-s4", two_faced ~steps:4 ~real:0 ~fake:1);
         ("two_faced-s5", two_faced ~steps:5 ~real:0 ~fake:1);
         ("walk-s20", walk ~steps:20 ~output:0);
         ("walk-s50", walk ~steps:50 ~output:0);
         ("zigzag-h10", zigzag ~half:10 ~output:0);
       ])

(* The Corollary 1 Monte-Carlo estimate on a G(M,1) an order of
   magnitude past the paper tables: two_faced with 5 steps at fragment
   cap 4400. Per-run coin streams are seeded before the fan-out, so the
   digest is independent of the pool width. *)
let corollary1_scale () =
  let t = gmr ~cap:4400 (Locald_turing.Zoo.two_faced ~steps:5 ~real:0 ~fake:1) in
  let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
  let runs = 100 in
  let seeds = Pool.split_seeds (Random.State.make [| 11 |]) runs in
  let outcomes =
    Pool.map
      (fun s ->
        Locald_decision.Verdict.accepts
          (Gmr_deciders.Fast.corollary1 fast (Random.State.make [| s |])))
      seeds
  in
  let successes =
    Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 outcomes
  in
  (Gmr.order t, Shard.digest (successes, runs, Gmr.order t))

let workloads =
  [
    pinned Quick "f1-coverage" ~hits_gated:true (fun ?backend:_ ?memo:_ () ->
        coverage ~regime ~t:2 ());
    pinned Quick "exhaustive-decider" ~wall_gated:true (fun ?backend ?memo () ->
        exhaustive ?backend ?memo ());
    pinned Quick "p3-coverage" (fun ?backend:_ ?memo:_ () ->
        let rows = Experiments.p3 ~quick:true () in
        ( List.fold_left
            (fun acc (r : Experiments.p3_row) ->
              acc + r.Experiments.g_classes + r.Experiments.b_classes)
            0 rows,
          Shard.digest rows ));
    pinned Quick "corollary1" ~hits_gated:true (fun ?backend:_ ?memo:_ () ->
        let rows = Experiments.corollary1 () in
        ( List.fold_left
            (fun acc (r : Experiments.corollary1_row) -> max acc r.Experiments.n)
            0 rows,
          Shard.digest rows ));
    pinned Quick "certify-tree" (fun ?backend:_ ?memo:_ () ->
        certify (Tree_deciders.p_decider t_r1) tree_r1 ());
    pinned Quick "certify-gmr" ~hits_gated:true ~wall_gated:true
      (fun ?backend:_ ?memo:_ () ->
        certify (Gmr_deciders.ld_decider ()) gmr_quick ());
    (* Regime constant 5 instead of 1: deeper trees, one radius up. *)
    pinned Scale "f1-coverage-scale" ~hits_gated:true
      (fun ?backend:_ ?memo:_ () ->
        coverage ~regime:(Ids.f_linear_plus 5) ~t:3 ());
    (* The quick tier's H+ into [0..9] instead of [0..7]: 45x the
       assignment space over the identical decider. *)
    pinned Scale "exhaustive-decider-scale" (fun ?backend ?memo () ->
        exhaustive ?backend ?memo ~bound:10 ());
    pinned Scale "corollary1-scale" ~hits_gated:true
      (fun ?backend:_ ?memo:_ () -> corollary1_scale ());
    pinned Scale "certify-gmr-scale" ~hits_gated:true
      (fun ?backend:_ ?memo:_ () ->
        certify ~budget:50_000 (Gmr_deciders.ld_decider ()) gmr_scale ());
  ]

let tier_workloads tier = List.filter (fun w -> w.p_tier = tier) workloads

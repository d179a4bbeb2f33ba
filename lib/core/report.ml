(* Plain-text rendering of the experiment records for the [locald]
   CLI. *)

let print_rule () = print_endline (String.make 78 '-')

let print_table1 rows =
  print_rule ();
  print_endline "T1: Do unique node identifiers help in local decision?";
  print_endline "    (Section 1.1 results table, regenerated)";
  print_rule ();
  List.iter
    (fun (c : Experiments.cell_result) ->
      let all = List.for_all snd c.evidence in
      Printf.printf "%-14s %-12s %s\n" c.cell c.relation
        (if all then "DEMONSTRATED" else "FAILED");
      List.iter
        (fun (name, ok) ->
          Printf.printf "    [%s] %s\n" (if ok then "ok" else "FAIL") name)
        c.evidence)
    rows;
  print_rule ();
  Printf.printf "           |  (C)          (notC)\n";
  let rel cell =
    match List.find_opt (fun c -> c.Experiments.cell = cell) rows with
    | Some c when List.for_all snd c.Experiments.evidence ->
        c.Experiments.relation
    | Some _ -> "??"
    | None -> "--"
  in
  Printf.printf "      (B)  |  %-11s %-11s\n" (rel "(B, C)") (rel "(B, notC)");
  Printf.printf "   (notB)  |  %-11s %-11s\n" (rel "(notB, C)") (rel "(notB, notC)");
  print_rule ()

let print_fig1 rows =
  print_rule ();
  print_endline
    "F1: Figure 1 — layered trees T_r, small instances H_r, view coverage";
  print_rule ();
  Printf.printf "%5s %3s %3s %6s %10s %8s %12s %s\n" "arity" "r" "t" "R(r)"
    "|T_r|" "|H_r|" "coverage" "prediction";
  List.iter
    (fun (x : Experiments.fig1_row) ->
      Printf.printf "%5d %3d %3d %6d %10d %8d %6d/%-6d %s\n" x.arity x.r x.t
        x.depth x.tree_nodes x.small_instances x.covered x.total
        (if x.expected_full then
           if x.covered = x.total then "full (as predicted: r >= 2t)"
           else "EXPECTED FULL BUT NOT"
         else if x.covered < x.total then "gaps (as predicted: r < 2t)"
         else "UNEXPECTEDLY FULL"))
    rows;
  print_rule ()

let print_fig2 rows =
  print_rule ();
  print_endline "F2: Figure 2 — the construction G(M, r) (r = 1)";
  print_rule ();
  Printf.printf "%-16s %5s %6s %6s %9s %9s %8s %9s %s\n" "machine" "steps"
    "output" "table" "fragments" "fake-wins" "nodes" "edges" "rules";
  List.iter
    (fun (x : Experiments.fig2_row) ->
      Printf.printf "%-16s %5d %6d %4dx%-3d %9d %9d %8d %9d %s\n" x.machine
        x.steps x.output x.table_side x.table_side x.fragments x.fake_windows
        x.nodes x.edges
        (if x.rules_ok then "pass" else "FAIL"))
    rows;
  print_rule ()

let print_fig3 rows =
  print_rule ();
  print_endline "F3: Figure 3 — the pyramid T^ (layered quadtree)";
  print_rule ();
  Printf.printf "%3s %6s %8s %10s %10s %10s %8s %8s\n" "h" "side" "nodes"
    "overhead" "grid-diam" "pyr-diam" "genuine" "torus";
  List.iter
    (fun (x : Experiments.fig3_row) ->
      Printf.printf "%3d %6d %8d %10.3f %10d %10d %8s %8s\n" x.h x.side x.nodes
        x.pyramid_overhead x.grid_diameter x.pyramid_diameter
        (if x.genuine_ok then "pass" else "FAIL")
        (if x.torus_rejected then "reject" else "MISSED"))
    rows;
  print_rule ()

let print_corollary1 rows =
  print_rule ();
  print_endline
    "C1: Corollary 1 — randomised Id-oblivious (1, 1-o(1))-decider for P";
  print_rule ();
  Printf.printf "%-16s %8s %8s %6s %10s %14s\n" "machine" "n" "expect" "runs"
    "success" "paper bound";
  List.iter
    (fun (x : Experiments.corollary1_row) ->
      Printf.printf "%-16s %8d %8s %6d %10.3f %14.4f\n" x.machine x.n
        (if x.expected then "yes" else "no")
        x.runs x.success x.theory_bound)
    rows;
  print_rule ()

let print_warmups rows =
  print_rule ();
  print_endline "W2/W3: the warm-up promise problems (Sections 2 and 3)";
  print_rule ();
  List.iter
    (fun (x : Experiments.warmup_row) ->
      Printf.printf "[%s] %-18s %-22s %s\n"
        (if x.ok then "ok" else "FAIL")
        x.problem x.setting x.check)
    rows;
  print_rule ()


let print_p3 rows =
  print_rule ();
  print_endline
    "P3: neighbourhood generator B(N,r) vs the true views of G(N,r)";
  print_rule ();
  Printf.printf "%-16s %8s %10s %10s %14s %14s\n" "machine" "halts<=w"
    "G classes" "B classes" "G covered" "B covered";
  List.iter
    (fun (x : Experiments.p3_row) ->
      Printf.printf "%-16s %8s %10d %10d %9d/%-6d %9d/%-6d\n" x.machine
        (if x.halts_in_window then "yes" else "no")
        x.g_classes x.b_classes x.g_covered_by_b x.g_classes x.b_covered_by_g
        x.b_classes)
    rows;
  print_rule ()

let print_fuel_diagonal rows =
  print_rule ();
  print_endline
    "D: fuel diagonalisation - every fuel-bounded Id-oblivious candidate fails";
  print_rule ();
  Printf.printf "%5s %-18s %28s %24s\n" "fuel" "fooling machine"
    "accepts its no-instance" "correct within fuel";
  List.iter
    (fun (x : Experiments.diagonal_row) ->
      Printf.printf "%5d %-18s %28s %24s\n" x.fuel x.fooling_machine
        (if x.fooled then "yes (fooled)" else "NO")
        (if x.honest_on_fast then "yes" else "NO"))
    rows;
  print_rule ()

let print_hereditary rows =
  print_rule ();
  print_endline
    "H: hereditariness - the separations live outside the hereditary class";
  print_rule ();
  Printf.printf "%-26s %-22s %12s %10s\n" "property" "yes-instance" "closed?" "verdict";
  List.iter
    (fun (x : Experiments.hereditary_row) ->
      Printf.printf "%-26s %-22s %12s %10s\n" x.property_name x.instance
        (if x.hereditary_looking then "no violation" else "violated")
        (if x.hereditary_looking = x.expected_hereditary then "as expected"
         else "UNEXPECTED"))
    rows;
  print_rule ()

let print_oi rows =
  print_rule ();
  print_endline "OI: order-invariant algorithms also lose under (B)";
  print_rule ();
  List.iter
    (fun (x : Experiments.oi_row) ->
      Printf.printf "[%s] %s\n" (if x.ok then "ok" else "FAIL") x.check)
    rows;
  print_rule ()

let print_construction rows =
  print_rule ();
  print_endline
    "K: construction tasks - identifiers as symmetry breakers (Section 1.3)";
  print_rule ();
  Printf.printf "%-38s %8s %6s %10s %12s\n" "task" "n" "ok" "rounds" "messages";
  List.iter
    (fun (x : Experiments.construction_row) ->
      Printf.printf "%-38s %8d %6s %10d %12s\n" x.task x.n
        (if x.ok then "yes" else "NO")
        x.rounds
        (if x.messages = 0 then "-" else string_of_int x.messages))
    rows;
  print_rule ()

(* ------------------------------------------------------------------ *)
(* Row failures: the conditions the printers above mark               *)
(* ------------------------------------------------------------------ *)

let failing cond fmt =
  Printf.ksprintf (fun s -> if cond then Some s else None) fmt

let table1_failure (c : Experiments.cell_result) =
  match List.find_opt (fun (_, ok) -> not ok) c.evidence with
  | Some (name, _) -> Some (Printf.sprintf "%s FAILED: %s" c.cell name)
  | None -> None

let fig1_failure (x : Experiments.fig1_row) =
  let full = x.covered = x.total in
  failing (x.expected_full <> full) "arity %d, r %d, t %d: %s" x.arity x.r x.t
    (if x.expected_full then "EXPECTED FULL BUT NOT" else "UNEXPECTEDLY FULL")

let fig2_failure (x : Experiments.fig2_row) =
  failing (not x.rules_ok) "%s: local rules FAIL" x.machine

let fig3_failure (x : Experiments.fig3_row) =
  failing
    ((not x.genuine_ok) || not x.torus_rejected)
    "h %d: %s" x.h
    (if x.genuine_ok then "torus counterfeit MISSED"
     else "genuine pyramid rules FAIL")

let warmups_failure (x : Experiments.warmup_row) =
  failing (not x.ok) "%s, %s: %s FAIL" x.problem x.setting x.check

let diagonal_failure (x : Experiments.diagonal_row) =
  failing
    ((not x.fooled) || not x.honest_on_fast)
    "fuel %d (%s): %s" x.fuel x.fooling_machine
    (if x.fooled then "NO, wrong within its fuel" else "NO, not fooled")

let hereditary_failure (x : Experiments.hereditary_row) =
  failing
    (x.hereditary_looking <> x.expected_hereditary)
    "%s on %s: UNEXPECTED" x.property_name x.instance

let oi_failure (x : Experiments.oi_row) =
  failing (not x.ok) "%s FAIL" x.check

let construction_failure (x : Experiments.construction_row) =
  failing (not x.ok) "%s, n %d: NO" x.task x.n

let print_faults rows =
  print_rule ();
  print_endline
    "FT: fault injection - decider accuracy under drops, crashes, fuel budgets";
  print_rule ();
  Printf.printf "%-18s %-16s %5s %4s %5s %4s %5s %8s %6s %9s %8s %8s\n"
    "decider" "instance" "drop" "crs" "fuel" "ret" "runs" "correct" "wrong"
    "degraded" "unknown" "dropped";
  List.iter
    (fun (x : Experiments.fault_row) ->
      let e = x.Experiments.f_eval in
      let p = x.Experiments.f_plan in
      Printf.printf "%-18s %-16s %5.2f %4d %5s %4d %5d %8d %6d %9d %8d %8d\n"
        x.Experiments.f_scenario
        e.Locald_decision.Decider.f_instance p.Locald_local.Faults.drop
        (List.length p.Locald_local.Faults.crashes)
        (match p.Locald_local.Faults.fuel with
        | None -> "-"
        | Some f -> string_of_int f)
        p.Locald_local.Faults.retries e.Locald_decision.Decider.f_runs
        e.Locald_decision.Decider.f_correct e.Locald_decision.Decider.f_wrong
        e.Locald_decision.Decider.f_degraded
        e.Locald_decision.Decider.f_unknown_nodes
        e.Locald_decision.Decider.f_dropped)
    rows;
  print_rule ()

(* Each ablation's heading and column line come before its first row. *)
let print_ablations rows =
  print_rule ();
  print_endline "A1-A4: ablations of the design choices called out in DESIGN.md";
  print_rule ();
  let current = ref "" in
  let section heading columns =
    if !current <> heading then begin
      current := heading;
      print_endline "";
      print_endline heading;
      columns ()
    end
  in
  let rules ok = if ok then "pass" else "FAIL" in
  List.iter
    (fun (row : Experiments.ablation_row) ->
      match row with
      | Fragment_cap x ->
          section "ablation A1: fragment-collection cap (G(twofaced3, 1))"
            (fun () ->
              Printf.printf "%8s %10s %8s %9s %8s\n" "cap" "fragments" "nodes"
                "edges" "rules");
          Printf.printf "%8d %10d %8d %9d %8s\n" x.cap x.fragments x.nodes
            x.edges (rules x.rules_ok)
      | Anchor_phases x ->
          section "ablation A2: aligned anchor phases of the fragments"
            (fun () ->
              Printf.printf "%10s %10s %8s %9s %8s\n" "phases" "fragments"
                "nodes" "edges" "rules");
          Printf.printf "%10s %10d %8d %9d %8s\n"
            (if x.all_phases then "all (36)" else "origin")
            x.fragments x.nodes x.edges (rules x.rules_ok)
      | Coverage_scaling x ->
          section "ablation A3: coverage experiment scaling (arity 1, t = 1)"
            (fun () ->
              Printf.printf "%6s %8s %10s %12s\n" "r" "R(r)" "|T_r|" "classes");
          Printf.printf "%6d %8d %10d %7d/%-6d\n" x.r x.depth x.tree_nodes
            x.covered x.total
      | At_scale x ->
          section
            (Printf.sprintf
               "ablation A4: Section 2 at scale (arity 2, r = %d, f(n) = n: \
                |T_%d| = %d)"
               x.r x.r x.tree_nodes)
            ignore;
          Printf.printf "  build T_%d (%d nodes)\n" x.r x.tree_nodes;
          Printf.printf "  P' verifier over every node (accepts: %b)\n"
            x.pprime_accepts;
          Printf.printf "  P decider, one assignment (rejects T_%d: %b)\n" x.r
            x.p_rejects)
    rows;
  print_rule ()

(* ------------------------------------------------------------------ *)
(* Obliviousness certification                                         *)
(* ------------------------------------------------------------------ *)

let print_certify rows =
  let open Locald_analysis in
  print_rule ();
  print_endline "CERT: who reads the input identifiers, and where";
  print_endline
    "      (access-trace provenance certification of the bundled deciders)";
  print_rule ();
  List.iter
    (fun (r : Certify.row) ->
      Printf.printf "%-13s %-26s r=%d  %-20s %s\n" r.Certify.c_cell
        r.Certify.c_name r.Certify.c_radius
        (Analysis.verdict_name r.Certify.c_report.Analysis.rep_verdict)
        (if r.Certify.c_ok then "[ok]"
         else
           Printf.sprintf "[MISMATCH: declared %s]"
             (Certify.claim_name r.Certify.c_claim));
      let rep = r.Certify.c_report in
      Printf.printf "    views %d/%d  events %d  max depth %d\n"
        rep.Analysis.rep_views rep.Analysis.rep_total rep.Analysis.rep_events
        rep.Analysis.rep_max_depth;
      (match rep.Analysis.rep_verdict with
      | Analysis.Id_dependent w ->
          (* [Printf] writes straight to stdout while [Format.printf]
             buffers until exit; going through [asprintf] keeps the
             witness line in place. *)
          Printf.printf "    witness: %s node %d - %s\n" w.Analysis.w_instance
            w.Analysis.w_node
            (Format.asprintf "%a" Trace.pp_access w.Analysis.w_access);
          Option.iter
            (fun (c : Analysis.confirmation) ->
              match c.Analysis.cf_variance with
              | Some (v : Locald_local.Oblivious.witness) ->
                  Printf.printf
                    "    confirmed: output variance on %s at node %d (%s)\n"
                    c.Analysis.cf_instance v.Locald_local.Oblivious.node
                    c.Analysis.cf_method
              | None ->
                  Printf.printf "    NOT confirmed: no variance on %s (%s)\n"
                    c.Analysis.cf_instance c.Analysis.cf_method)
            w.Analysis.w_confirmation
      | Analysis.Inconclusive { why; _ } ->
          Printf.printf "    inconclusive: %s\n" why
      | Analysis.Certified_oblivious -> ());
      List.iter
        (fun f ->
          Printf.printf "    flag: %s\n"
            (Format.asprintf "%a" Analysis.pp_flag f))
        rep.Analysis.rep_flags)
    rows;
  print_rule ();
  (* The Table 1 grid, verdict-shaped: how many deciders of each cell
     certified oblivious vs produced an id-read witness. *)
  let cell_summary cell =
    let mine = List.filter (fun r -> r.Certify.c_cell = cell) rows in
    if mine = [] then "-"
    else
      let count p = List.length (List.filter p mine) in
      let obliv =
        count (fun r -> Analysis.certified r.Certify.c_report)
      and dep = count (fun r -> Analysis.id_dependent r.Certify.c_report)
      and bad = count (fun r -> not r.Certify.c_ok) in
      Printf.sprintf "%d oblivious, %d id-dep%s" obliv dep
        (if bad > 0 then Printf.sprintf ", %d MISMATCH" bad else "")
  in
  Printf.printf "           |  %-24s %-24s\n" "(C)" "(notC)";
  Printf.printf "(B)        |  %-24s %-24s\n"
    (cell_summary "(B, C)")
    (cell_summary "(B, notC)");
  Printf.printf "(notB)     |  %-24s %-24s\n"
    (cell_summary "(notB, C)")
    (cell_summary "(notB, notC)");
  print_rule ();
  if Certify.all_ok rows then
    print_endline "every decider certifies as declared"
  else print_endline "MISMATCH: some decider does not certify as declared"

(* ------------------------------------------------------------------ *)
(* Wall-clock timings                                                  *)
(* ------------------------------------------------------------------ *)

type timing = {
  t_experiment : string;
  t_wall : float;          (* seconds *)
  t_jobs : int;
  t_speedup : float option; (* wall at jobs=1 / wall, when both measured *)
}

let print_timings rows =
  print_rule ();
  print_endline "Wall-clock per experiment";
  print_rule ();
  Printf.printf "%-24s %10s %6s %9s\n" "experiment" "wall(s)" "jobs" "speedup";
  List.iter
    (fun t ->
      Printf.printf "%-24s %10.3f %6d %9s\n" t.t_experiment t.t_wall t.t_jobs
        (match t.t_speedup with
        | None -> "-"
        | Some s -> Printf.sprintf "%.2fx" s))
    rows;
  print_rule ()

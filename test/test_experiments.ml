(* End-to-end tests: the experiment drivers must regenerate the
   paper's results table and figures (in quick mode). *)

open Locald_core

let check = Alcotest.check
let bool = Alcotest.bool

(* The row-failure predicate that fails [locald <experiment>]: silent
   on every real quick row, and naming a hand-built failing row. *)
let check_failure name failure rows bad =
  List.iter
    (fun row ->
      Option.iter
        (Alcotest.failf "%s: a real quick row is flagged: %s" name)
        (failure row))
    rows;
  if failure bad = None then Alcotest.failf "%s: a failing row passes" name

let test_table1 () =
  let rows = Experiments.table1 ~quick:true () in
  check Alcotest.int "four cells" 4 (List.length rows);
  List.iter
    (fun (c : Experiments.cell_result) ->
      List.iter
        (fun (name, ok) ->
          check bool (Printf.sprintf "%s: %s" c.cell name) true ok)
        c.evidence)
    rows;
  (* The relations match the paper's table. *)
  let rel cell =
    (List.find (fun c -> c.Experiments.cell = cell) rows).Experiments.relation
  in
  check Alcotest.string "(B,C)" "LD* <> LD" (rel "(B, C)");
  check Alcotest.string "(B,notC)" "LD* <> LD" (rel "(B, notC)");
  check Alcotest.string "(notB,C)" "LD* <> LD" (rel "(notB, C)");
  check Alcotest.string "(notB,notC)" "LD* = LD" (rel "(notB, notC)");
  let c = List.hd rows in
  check_failure "table1" Report.table1_failure rows
    { c with evidence = c.evidence @ [ ("a forced check", false) ] }

let test_fig1 () =
  let rows = Experiments.fig1 ~quick:true () in
  check bool "has rows" true (rows <> []);
  List.iter
    (fun (x : Experiments.fig1_row) ->
      let full = x.covered = x.total in
      check bool
        (Printf.sprintf "arity=%d r=%d t=%d coverage matches prediction" x.arity
           x.r x.t)
        x.expected_full full)
    rows;
  let x = List.hd rows in
  check_failure "fig1" Report.fig1_failure rows
    { x with expected_full = not x.expected_full }

let test_fig2 () =
  let rows = Experiments.fig2 ~quick:true () in
  check bool "has rows" true (rows <> []);
  List.iter
    (fun (x : Experiments.fig2_row) ->
      check bool (x.machine ^ " rules pass") true x.rules_ok;
      check bool (x.machine ^ " has fake windows") true (x.fake_windows > 0);
      check bool (x.machine ^ " node count sane") true (x.nodes > x.table_side * x.table_side))
    rows;
  check_failure "fig2" Report.fig2_failure rows
    { (List.hd rows) with rules_ok = false }

let test_fig3 () =
  let rows = Experiments.fig3 ~quick:true () in
  List.iter
    (fun (x : Experiments.fig3_row) ->
      check bool "genuine pyramid passes" true x.genuine_ok;
      check bool "torus rejected" true x.torus_rejected;
      check bool "overhead < 2" true (x.pyramid_overhead < 2.0);
      check bool "pyramid shortens the diameter for big grids" true
        (x.h <= 1 || x.pyramid_diameter <= x.grid_diameter))
    rows;
  check_failure "fig3" Report.fig3_failure rows
    { (List.hd rows) with torus_rejected = false }

let test_corollary1 () =
  let rows = Experiments.corollary1 ~quick:true () in
  List.iter
    (fun (x : Experiments.corollary1_row) ->
      check bool
        (Printf.sprintf "%s success rate high" x.machine)
        true (x.success >= 0.9))
    rows

let test_p3 () =
  let rows = Experiments.p3 ~quick:true () in
  check bool "has rows" true (rows <> []);
  List.iter
    (fun (x : Experiments.p3_row) ->
      if x.halts_in_window then begin
        check Alcotest.int (x.machine ^ ": B covers G") x.g_classes x.g_covered_by_b;
        check Alcotest.int (x.machine ^ ": G covers B") x.b_classes x.b_covered_by_g
      end)
    rows

let test_fuel_diagonal () =
  let rows = Experiments.fuel_diagonal ~quick:true () in
  check bool "has rows" true (rows <> []);
  List.iter
    (fun (x : Experiments.diagonal_row) ->
      check bool (Printf.sprintf "fuel %d fooled" x.fuel) true x.fooled;
      check bool (Printf.sprintf "fuel %d honest within fuel" x.fuel) true
        x.honest_on_fast)
    rows;
  check_failure "diagonal" Report.diagonal_failure rows
    { (List.hd rows) with fooled = false }

let test_construction () =
  let rows = Experiments.construction ~quick:true () in
  List.iter
    (fun (x : Experiments.construction_row) ->
      check bool (Printf.sprintf "%s n=%d" x.task x.n) true x.ok)
    rows;
  (* The gossip meter on the s x s grid at t = 2: t + 1 = 3 rounds,
     each sending over both directions of its 2s(s-1) edges — 144 and
     360 messages at s = 4 and 6. *)
  let gossip =
    List.filter
      (fun (x : Experiments.construction_row) ->
        String.starts_with ~prefix:"full-information gossip" x.task)
      rows
  in
  check (Alcotest.list Alcotest.int) "gossip grid orders" [ 16; 36 ]
    (List.map (fun (x : Experiments.construction_row) -> x.n) gossip);
  List.iter2
    (fun s (x : Experiments.construction_row) ->
      check Alcotest.int (Printf.sprintf "gossip rounds n=%d" x.n) 3 x.rounds;
      check Alcotest.int
        (Printf.sprintf "gossip messages n=%d" x.n)
        (3 * 2 * 2 * s * (s - 1))
        x.messages)
    [ 4; 6 ] gossip;
  check_failure "construction" Report.construction_failure rows
    { (List.hd rows) with ok = false }

let test_order_invariance () =
  let rows = Experiments.order_invariance ~quick:true () in
  List.iter (fun (x : Experiments.oi_row) -> check bool x.check true x.ok) rows;
  check_failure "oi" Report.oi_failure rows { (List.hd rows) with ok = false }

let test_hereditary () =
  let rows = Experiments.hereditary ~quick:true () in
  List.iter
    (fun (x : Experiments.hereditary_row) ->
      check bool
        (x.property_name ^ " on " ^ x.instance)
        x.expected_hereditary x.hereditary_looking)
    rows;
  let x = List.hd rows in
  check_failure "hereditary" Report.hereditary_failure rows
    { x with expected_hereditary = not x.expected_hereditary }

let test_warmups () =
  let rows = Experiments.warmups ~quick:true () in
  check bool "has rows" true (rows <> []);
  List.iter
    (fun (x : Experiments.warmup_row) ->
      check bool (x.problem ^ " / " ^ x.setting ^ ": " ^ x.check) true x.ok)
    rows;
  check_failure "warmups" Report.warmups_failure rows
    { (List.hd rows) with ok = false }

let test_ablations () =
  let rows = Experiments.ablations ~quick:true () in
  check Alcotest.int "5 caps, 2 phase settings, 5 radii, 1 scale row" 13
    (List.length rows);
  List.iter
    (fun (row : Experiments.ablation_row) ->
      match row with
      | Fragment_cap x ->
          check bool (Printf.sprintf "A1 cap %d: rules pass" x.cap) true
            x.rules_ok
      | Anchor_phases x ->
          check bool
            (Printf.sprintf "A2 all_phases %b: rules pass" x.all_phases)
            true x.rules_ok
      | Coverage_scaling _ -> ()
      | At_scale x ->
          check Alcotest.int "A4 quick size: T_2" 2 x.r;
          check bool "A4: P' verifier accepts T_r" true x.pprime_accepts;
          check bool "A4: P decider rejects T_r" true x.p_rejects)
    rows

let test_report_printers () =
  (* The renderers must handle every row shape without raising; the
     heavy fault grid is left to the determinism batteries. *)
  List.iter
    (fun (x : Registry.experiment) ->
      if not x.e_heavy then fst (x.e_run ~quick:true ~seed:None ()) ())
    Registry.experiments;
  (* Empty inputs too. *)
  Report.print_table1 [];
  Report.print_fig1 [];
  Report.print_fig2 [];
  Report.print_fig3 [];
  Report.print_corollary1 [];
  Report.print_p3 [];
  Report.print_fuel_diagonal [];
  Report.print_warmups [];
  Report.print_ablations [];
  check bool "printers total" true true

let () =
  Alcotest.run "experiments"
    [
      ( "paper-artefacts",
        [
          Alcotest.test_case "T1 results table" `Slow test_table1;
          Alcotest.test_case "F1 coverage" `Slow test_fig1;
          Alcotest.test_case "F2 construction" `Slow test_fig2;
          Alcotest.test_case "F3 pyramid" `Quick test_fig3;
          Alcotest.test_case "C1 randomised decider" `Slow test_corollary1;
          Alcotest.test_case "P3 generator coverage" `Slow test_p3;
          Alcotest.test_case "D fuel diagonalisation" `Slow test_fuel_diagonal;
          Alcotest.test_case "H hereditariness" `Slow test_hereditary;
          Alcotest.test_case "OI order invariance" `Slow test_order_invariance;
          Alcotest.test_case "K construction" `Slow test_construction;
          Alcotest.test_case "W2/W3 warm-ups" `Slow test_warmups;
          Alcotest.test_case "A1–A4 ablations" `Slow test_ablations;
          Alcotest.test_case "report printers" `Slow test_report_printers;
        ] );
    ]

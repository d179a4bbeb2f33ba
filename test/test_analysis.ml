(* Tests for the obliviousness certifier: the trace monitor and its
   input/synthetic provenance split, the certify verdict lattice
   (certified-oblivious, id-dependent with a confirmed witness,
   inconclusive on budget exhaustion or fault-degraded coverage), and
   the orthogonal flags (radius violation, nondeterminism). *)

open Locald_graph
open Locald_local
open Locald_decision
open Locald_analysis

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let seq_array n = Ids.to_array (Ids.sequential n)

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Traces                                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_counts () =
  let lg = Labelled.make (Gen.cycle 5) (Array.init 5 (fun i -> i)) in
  let view = View.extract ~ids:(seq_array 5) lg ~center:0 ~radius:1 in
  let input = match View.ids view with Some a -> a | None -> [||] in
  let out, t =
    Trace.run
      ~input_ids:(fun a -> a == input)
      (fun v ->
        let c = View.center_id v in
        let l = View.center_label v in
        let k = View.order v in
        c + l + k)
      view
  in
  check int "output" 3 out;
  check int "input id reads" 1 t.Trace.input_id_reads;
  check int "input bulk reads" 0 t.Trace.input_bulk_reads;
  check int "synthetic id reads" 0 t.Trace.synthetic_id_reads;
  check int "label reads" 1 t.Trace.label_reads;
  check int "structure reads" 1 t.Trace.structure_reads;
  check int "total events" 3 (Trace.total_events t);
  check int "max depth" 0 t.Trace.max_depth;
  check bool "reads input ids" true (Trace.reads_input_ids t);
  match Trace.first_input_id_read t with
  | Some (View.Id_read { input = true; depth = 0; _ }) -> ()
  | _ -> Alcotest.fail "expected an input id-read as first witness event"

let test_trace_provenance_split () =
  let lg = Labelled.make (Gen.path 3) [| 0; 1; 0 |] in
  let view = View.extract ~ids:(seq_array 3) lg ~center:1 ~radius:1 in
  let input = match View.ids view with Some a -> a | None -> [||] in
  let fresh = Array.map (fun i -> i + 10) input in
  let _, t =
    Trace.run
      ~input_ids:(fun a -> a == input)
      (fun v ->
        (* One read of the run's assignment, one read of an id array
           the decision manufactured itself (the [A*] pattern). *)
        let synthetic = View.center_id (View.reassign_ids v fresh) in
        let real = View.center_id v in
        synthetic + real)
      view
  in
  check int "input id reads" 1 t.Trace.input_id_reads;
  check int "synthetic id reads" 1 t.Trace.synthetic_id_reads;
  check bool "still input-reading" true (Trace.reads_input_ids t)

let test_trace_equal () =
  let lg = Labelled.make (Gen.path 3) [| 0; 1; 0 |] in
  let view = View.extract ~ids:(seq_array 3) lg ~center:1 ~radius:1 in
  let input = match View.ids view with Some a -> a | None -> [||] in
  let classify a = a == input in
  let f v = View.center_label v = 1 in
  let g v = View.center_id v = 1 in
  let _, t1 = Trace.run ~input_ids:classify f view in
  let _, t2 = Trace.run ~input_ids:classify f view in
  let _, t3 = Trace.run ~input_ids:classify g view in
  check bool "same decision, same trace" true (Trace.equal t1 t2);
  check bool "different decision, different trace" false (Trace.equal t1 t3)

(* ------------------------------------------------------------------ *)
(* Certification                                                       *)
(* ------------------------------------------------------------------ *)

let path_instance n =
  ( "path" ^ string_of_int n,
    Labelled.make (Gen.path n) (Array.init n (fun v -> v mod 2)) )

let parity_alg =
  Algorithm.make ~name:"parity" ~radius:1 (fun v -> View.center_label v = 0)

let threshold_alg =
  Algorithm.make ~name:"id<2" ~radius:1 (fun v -> View.center_id v < 2)

let test_certify_oblivious () =
  let report = Analysis.certify parity_alg ~instances:[ path_instance 5 ] in
  check bool "certified" true (Analysis.certified report);
  check bool "not id-dependent" false (Analysis.id_dependent report);
  check (Alcotest.option bool) "no confirmation applies" None
    (Analysis.confirmed report);
  check int "views" 5 report.Analysis.rep_views;
  check int "total" 5 report.Analysis.rep_total;
  check int "nothing degraded" 0 report.Analysis.rep_degraded;
  check bool "events recorded" true (report.Analysis.rep_events > 0);
  check int "no flags" 0 (List.length report.Analysis.rep_flags)

let test_certify_id_dependent_confirmed () =
  let name, lg = path_instance 4 in
  let report =
    Analysis.certify threshold_alg
      ~confirm:(Analysis.Confirm_exhaustive 4)
      ~instances:[ (name, lg) ]
  in
  check bool "id-dependent" true (Analysis.id_dependent report);
  check (Alcotest.option bool) "semantically confirmed" (Some true)
    (Analysis.confirmed report);
  match report.Analysis.rep_verdict with
  | Analysis.Id_dependent w -> (
      check string "witness instance" name w.Analysis.w_instance;
      check int "first-in-order witness node" 0 w.Analysis.w_node;
      check bool "witness trace reads input ids" true
        (Trace.reads_input_ids w.Analysis.w_trace);
      (match w.Analysis.w_access with
      | View.Id_read { input = true; _ } -> ()
      | _ -> Alcotest.fail "witness access should be an input id-read");
      match w.Analysis.w_confirmation with
      | Some c ->
          check bool "variance witness found" true
            (c.Analysis.cf_variance <> None)
      | None -> Alcotest.fail "expected a confirmation record")
  | _ -> Alcotest.fail "expected an Id_dependent verdict"

let test_certify_simulation_oblivious () =
  (* [A*] over an id-reading decider, certified WITHOUT the id strip:
     the certificate rests on provenance (every id it reads is one it
     reassigned itself), not on the ids being hidden. *)
  let ob = Simulation.a_star ~budget:(Simulation.Exhaustive 4) threshold_alg in
  let alg =
    Algorithm.make ~name:ob.Algorithm.ob_name ~radius:ob.Algorithm.ob_radius
      ob.Algorithm.ob_decide
  in
  let report = Analysis.certify alg ~instances:[ path_instance 4 ] in
  check bool "simulation certifies oblivious" true (Analysis.certified report);
  check bool "synthetic re-decisions traced" true
    (report.Analysis.rep_events > report.Analysis.rep_views)

let test_certify_budget_inconclusive () =
  let report =
    Analysis.certify ~budget:2 parity_alg ~instances:[ path_instance 5 ]
  in
  check bool "not certified" false (Analysis.certified report);
  match report.Analysis.rep_verdict with
  | Analysis.Inconclusive { covered; total; why } ->
      check int "covered" 2 covered;
      check int "total" 5 total;
      check bool "why mentions the budget" true (contains_sub why "budget")
  | _ -> Alcotest.fail "expected an Inconclusive verdict"

let test_certify_fault_degraded () =
  (* Satellite: under a crash plan the certifier must report degraded
     coverage, never a false certificate for the surviving nodes. *)
  let plan = Faults.make ~crashes:[ (1, 1) ] () in
  let report =
    Analysis.certify ~plan parity_alg ~instances:[ path_instance 3 ]
  in
  check bool "no false certificate" false (Analysis.certified report);
  check bool "degradation counted" true (report.Analysis.rep_degraded > 0);
  match report.Analysis.rep_verdict with
  | Analysis.Inconclusive { why; _ } ->
      check bool "why mentions degradation" true (contains_sub why "degraded")
  | _ -> Alcotest.fail "expected an Inconclusive verdict"

let test_certify_nondeterminism_flag () =
  (* A stateful decision: the first run reads the label, the second
     reads nothing. Outputs agree, so only the trace comparison can
     catch it. One node keeps both runs on one work item. *)
  let lg = Labelled.make (Gen.path 1) [| 0 |] in
  let flip = ref false in
  let alg =
    Algorithm.make ~name:"flaky" ~radius:1 (fun v ->
        flip := not !flip;
        if !flip then View.center_label v = 0 else true)
  in
  let report = Analysis.certify alg ~instances:[ ("one", lg) ] in
  check bool "nondeterminism flagged" true
    (List.exists
       (function Analysis.Nondeterminism _ -> true | _ -> false)
       report.Analysis.rep_flags)

let test_certify_radius_violation () =
  (* Declared radius 0, but the decision reads a depth-1 label when it
     can see one. Certifying with slack extracts the wider view and
     surfaces the violation. *)
  let lg = Labelled.make (Gen.path 2) [| 0; 1 |] in
  let greedy =
    Algorithm.make ~name:"greedy" ~radius:0 (fun v ->
        if View.order v > 1 then (
          let other = if v.View.center = 0 then 1 else 0 in
          View.label v other >= 0)
        else true)
  in
  let report = Analysis.certify ~slack:1 greedy ~instances:[ ("edge", lg) ] in
  check bool "oblivious despite the violation" true (Analysis.certified report);
  check bool "radius violation flagged" true
    (List.exists
       (function
         | Analysis.Radius_violation { rv_depth = 1; rv_declared = 0; _ } ->
             true
         | _ -> false)
       report.Analysis.rep_flags);
  check int "max depth over traces" 1 report.Analysis.rep_max_depth

(* Every radius-2 ball of two disjoint 400-leaf stars holds all 401
   nodes of its star, more than the minor heap takes, so each probe's
   id array is lent and consecutive probes refill the same one.
   Provenance must still tell that array from one the decide builds. *)
let test_certify_lent_provenance () =
  let n = 802 in
  let star =
    ( "stars400",
      Labelled.make
        (Graph.disjoint_union (Gen.star 401) (Gen.star 401))
        (Array.init n (fun v -> if v = n - 1 then 1 else 0)) )
  in
  (* Reads an id at the second star's last leaf only, whose probe gets
     an array that the first star's probes filled. *)
  let reader =
    Algorithm.make ~name:"last-leaf-id" ~radius:2 (fun v ->
        View.center_label v = 0 || View.center_id v >= 0)
  in
  (match (Analysis.certify reader ~instances:[ star ]).Analysis.rep_verdict with
  | Analysis.Id_dependent
      { w_node; w_access = View.Id_read { input = true; depth = 0; id; _ }; _ } ->
      check int "witness node" (n - 1) w_node;
      check int "witness id" (n - 1) id
  | _ -> Alcotest.fail "expected an Id_dependent verdict with an input id read");
  let own_ids =
    Algorithm.make ~name:"own-ids" ~radius:2 (fun v ->
        let own = Array.init (View.order v) (fun i -> 1000 + i) in
        View.center_id (View.reassign_ids v own) >= 1000)
  in
  let report = Analysis.certify own_ids ~instances:[ star ] in
  check bool "ids read through a built array certify oblivious" true
    (Analysis.certified report)

let () =
  Alcotest.run "analysis"
    [
      ( "trace",
        [
          Alcotest.test_case "event counts" `Quick test_trace_counts;
          Alcotest.test_case "provenance split" `Quick
            test_trace_provenance_split;
          Alcotest.test_case "trace equality" `Quick test_trace_equal;
        ] );
      ( "certify",
        [
          Alcotest.test_case "oblivious" `Quick test_certify_oblivious;
          Alcotest.test_case "id-dependent confirmed" `Quick
            test_certify_id_dependent_confirmed;
          Alcotest.test_case "simulation oblivious" `Quick
            test_certify_simulation_oblivious;
          Alcotest.test_case "budget inconclusive" `Quick
            test_certify_budget_inconclusive;
          Alcotest.test_case "fault-degraded coverage" `Quick
            test_certify_fault_degraded;
          Alcotest.test_case "nondeterminism flag" `Quick
            test_certify_nondeterminism_flag;
          Alcotest.test_case "radius violation flag" `Quick
            test_certify_radius_violation;
          Alcotest.test_case "provenance on lent id arrays" `Quick
            test_certify_lent_provenance;
        ] );
    ]

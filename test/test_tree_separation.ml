(* Tests for the Section 2 construction: instances, classification,
   the P' verifier, the P decider, view coverage and the failure of
   the budgeted simulation. *)

open Locald_graph
open Locald_local
open Locald_decision
open Locald_core
module Ti = Tree_instances
module Td = Tree_deciders

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let regime = Ids.f_linear_plus 1
let p2 = { Ti.regime; arity = 2; r = 1 }
let rng () = Random.State.make [| 0x5ec2 |]

let kind =
  Alcotest.testable
    (fun ppf -> function
      | Ti.Small -> Fmt.string ppf "Small"
      | Ti.Large -> Fmt.string ppf "Large"
      | Ti.Neither -> Fmt.string ppf "Neither")
    ( = )

(* ------------------------------------------------------------------ *)
(* Bounds                                                              *)
(* ------------------------------------------------------------------ *)

let test_bounds () =
  check int "tree size depth 3" 15 (Bound.tree_size ~arity:2 ~depth:3);
  check int "small max size r=1" 4 (Bound.small_max_size ~arity:2 ~r:1);
  (* f(n) = n+1, so R(1) = f(5) = 6. *)
  check int "R(1)" 6 (Bound.big_r ~regime ~arity:2 ~r:1);
  check bool "pigeonhole r=1" true (Bound.pigeonhole_holds ~regime ~arity:2 ~r:1);
  check bool "pigeonhole r=2" true (Bound.pigeonhole_holds ~regime ~arity:2 ~r:2);
  check bool "pigeonhole arity 1" true (Bound.pigeonhole_holds ~regime ~arity:1 ~r:5);
  check bool "pigeonhole under oracle f" true
    (Bound.pigeonhole_holds ~regime:(Ids.f_oracle ~seed:1) ~arity:2 ~r:1)

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let test_classify_large () = check kind "T_r" Ti.Large (Ti.classify p2 (Ti.big_tree p2))

let test_classify_all_smalls () =
  List.iter
    (fun apex ->
      check kind
        (Printf.sprintf "H+ at (%d,%d)" (fst apex) (snd apex))
        Ti.Small
        (Ti.classify p2 (Ti.small_instance p2 ~apex)))
    (Ti.apexes p2)

let test_classify_counterfeits () =
  let apex = (0, 1) in
  check kind "cone without pivot" Ti.Neither
    (Ti.classify p2 (Ti.cone_without_pivot p2 ~apex));
  check kind "two pivots" Ti.Neither (Ti.classify p2 (Ti.two_pivots p2 ~apex));
  (* At r = 1 every cone node is a border node, so the interior-pivot
     counterfeit needs r = 2 (apex (0,0): node (0,1) is interior). *)
  let p2r2 = { p2 with Ti.r = 2 } in
  check kind "pivot on interior" Ti.Neither
    (Ti.classify p2r2 (Ti.pivot_on_interior p2r2 ~apex:(0, 0)));
  check kind "truncated tree" Ti.Neither
    (Ti.classify p2 (Ti.truncated_tree p2 ~keep_depth:2));
  check kind "wrong r" Ti.Neither
    (Ti.classify { p2 with Ti.r = 2 } (Ti.big_tree p2))

let test_membership_predicates () =
  let apex = (1, 2) in
  check bool "H+ in P" true (Ti.in_p p2 (Ti.small_instance p2 ~apex));
  check bool "T_r not in P" false (Ti.in_p p2 (Ti.big_tree p2));
  check bool "T_r in P'" true (Ti.in_p' p2 (Ti.big_tree p2));
  check bool "counterfeit in neither" false
    (Ti.in_p' p2 (Ti.cone_without_pivot p2 ~apex))

let test_membership_iso_invariant () =
  (* Membership is invariant under node renumbering, as a labelled
     graph property must be. *)
  let rng = rng () in
  let h = Ti.small_instance p2 ~apex:(1, 1) in
  let n = Labelled.order h in
  for _ = 1 to 10 do
    let perm = Ids.to_array (Ids.shuffled rng n) in
    check bool "membership invariant" true (Ti.in_p p2 (Labelled.relabel_nodes h perm))
  done

(* ------------------------------------------------------------------ *)
(* The P' verifier (the LD-star algorithm)                             *)
(* ------------------------------------------------------------------ *)

let verifier = Td.pprime_verifier p2

let test_verifier_accepts () =
  check bool "accepts T_r" true
    (Verdict.accepts (Decider.decide_oblivious verifier (Ti.big_tree p2)));
  List.iter
    (fun apex ->
      check bool "accepts H+" true
        (Verdict.accepts (Decider.decide_oblivious verifier (Ti.small_instance p2 ~apex))))
    (Ti.apexes p2)

let test_verifier_rejects_counterfeits () =
  let apex = (1, 1) in
  (* The interior-pivot counterfeit needs a cone with an interior. *)
  let p2r2 = { p2 with Ti.r = 2 } in
  check bool "pivot on interior rejected" true
    (Verdict.rejects
       (Decider.decide_oblivious (Td.pprime_verifier p2r2)
          (Ti.pivot_on_interior p2r2 ~apex:(0, 0))));
  List.iter
    (fun (name, lg) ->
      check bool name true (Verdict.rejects (Decider.decide_oblivious verifier lg)))
    [
      ("cone without pivot", Ti.cone_without_pivot p2 ~apex);
      ("two pivots", Ti.two_pivots p2 ~apex);

      ("truncated tree", Ti.truncated_tree p2 ~keep_depth:3);
    ]

let test_verifier_is_genuinely_oblivious () =
  (* By construction it never reads ids; check the lifted version
     shows no variance. *)
  let rng = rng () in
  let lifted = Locald_local.Algorithm.of_oblivious verifier in
  check bool "no id variance" true
    (Oblivious.find_variance_sampled ~rng ~trials:20 ~regime lifted
       (Ti.small_instance p2 ~apex:(0, 1))
    = None)

(* ------------------------------------------------------------------ *)
(* The P decider (LD)                                                  *)
(* ------------------------------------------------------------------ *)

let test_p_decider_exhaustively_on_tiny () =
  (* r = 0: the small instances are a single tree node plus a pivot.
     Exhaust every bounded assignment. *)
  let p0 = { p2 with Ti.r = 0 } in
  let decider = Td.p_decider p0 in
  let rr = Ti.depth p0 in
  List.iter
    (fun apex ->
      let h = Ti.small_instance p0 ~apex in
      let e =
        Decider.evaluate_exhaustive ~bound:rr decider ~expected:true
          ~instance:"H+" h
      in
      check bool "exhaustively correct on H+" true (Decider.all_correct e))
    (List.filteri (fun i _ -> i mod 3 = 0) (Ti.apexes p0))

let test_p_decider_random () =
  let rng = rng () in
  let decider = Td.p_decider p2 in
  let eval expected lg =
    Decider.all_correct
      (Decider.evaluate ~rng ~regime ~assignments:40 decider ~expected ~instance:"" lg)
  in
  check bool "rejects T_r under every sampled assignment" true
    (eval false (Ti.big_tree p2));
  check bool "accepts H+ under every sampled assignment" true
    (eval true (Ti.small_instance p2 ~apex:(2, 2)));
  check bool "rejects counterfeits" true
    (eval false (Ti.two_pivots p2 ~apex:(0, 1)))

(* ------------------------------------------------------------------ *)
(* Coverage and the budgeted A*                                        *)
(* ------------------------------------------------------------------ *)

let test_coverage_full_when_predicted () =
  (* Full coverage holds whenever r >= 2t: a border node's pivot edge
     is invisible until the pivot itself enters the ball. *)
  let c = Td.coverage p2 ~t:0 in
  check int "arity 2, t=0 full" c.Td.total_views c.Td.covered;
  let p1 = { Ti.regime; arity = 1; r = 2 } in
  let c = Td.coverage p1 ~t:1 in
  check int "arity 1, r=2t exactly, t=1 full" c.Td.total_views c.Td.covered;
  let p1 = { Ti.regime; arity = 1; r = 4 } in
  let c = Td.coverage p1 ~t:2 in
  check int "arity 1, r=2t exactly, t=2 full" c.Td.total_views c.Td.covered;
  let p1 = { Ti.regime; arity = 1; r = 6 } in
  let c = Td.coverage p1 ~t:2 in
  check int "arity 1, r=6, t=2 full" c.Td.total_views c.Td.covered

let test_coverage_gaps_when_r_small () =
  let p1 = { Ti.regime; arity = 1; r = 1 } in
  let c = Td.coverage p1 ~t:1 in
  check bool "gaps for r < 2t (r=1, t=1)" true (c.Td.covered < c.Td.total_views);
  check bool "witness node reported" true (c.Td.uncovered_node <> None);
  let p1 = { Ti.regime; arity = 1; r = 3 } in
  let c = Td.coverage p1 ~t:2 in
  check bool "gaps for r < 2t (r=3, t=2)" true (c.Td.covered < c.Td.total_views)

let test_budgeted_a_star_two_failures () =
  let rr = Ti.depth p2 in
  (match Td.budgeted_a_star p2 ~budget:(2 * rr) ~trials:64 with
  | Td.Rejects_small _ -> ()
  | Td.Accepts_large | Td.No_failure_found ->
      Alcotest.fail "big budget should reject a small instance");
  match Td.budgeted_a_star p2 ~budget:rr ~trials:64 with
  | Td.Accepts_large -> ()
  | Td.Rejects_small _ | Td.No_failure_found ->
      Alcotest.fail "small budget should accept T_r"

(* ------------------------------------------------------------------ *)
(* Cross-layer integration                                             *)
(* ------------------------------------------------------------------ *)

let test_decider_through_message_passing () =
  (* The Section 2 decider run through the real gossip engine decides
     every node, with the output of direct view evaluation — the
     construction is an honest local algorithm. *)
  let rng = rng () in
  let decider = Td.p_decider p2 in
  List.iter
    (fun lg ->
      let ids = Ids.sample rng regime ~n:(Labelled.order lg) in
      let direct = Runner.run decider lg ~ids in
      let gossip = Fault_runner.run_outputs ~plan:Faults.empty decider lg ~ids in
      check bool "engines agree on the separation instance" true
        (Array.for_all2 (fun d o -> o = Fault_runner.Decided d) direct gossip))
    [ Ti.small_instance p2 ~apex:(1, 1); Ti.cone_without_pivot p2 ~apex:(1, 1) ]

let test_p_decider_id_dependence_certified () =
  (* Exhaustively: the decider's outputs genuinely depend on the
     identifier assignment (Theorem 1 needs them to). r = 0 keeps the
     instance tiny; the witness flips a node across the R(r)
     threshold. *)
  let p0 = { Ti.regime; arity = 1; r = 0 } in
  let tr = Ti.big_tree p0 in
  let decider = Td.p_decider p0 in
  check bool "instance small enough to exhaust" true (Labelled.order tr <= 6);
  check bool "id dependence witnessed exhaustively" true
    (Option.is_some
       (Oblivious.find_variance_exhaustive
          ~bound:(Ti.depth p0 + 2)
          decider tr))

let test_cycle_promise_under_oracle_regime () =
  let rng = rng () in
  let oracle = Ids.f_oracle ~seed:11 in
  let r = 6 in
  let decider = Cycle_promise.ld_decider ~regime:oracle in
  let eval expected lg =
    Decider.all_correct
      (Decider.evaluate ~rng ~regime:oracle ~assignments:40 decider ~expected
         ~instance:"" lg)
  in
  check bool "oracle-f decider correct" true
    (eval true (Cycle_promise.yes_instance ~r)
    && eval false (Cycle_promise.no_instance ~regime:oracle ~r))

(* ------------------------------------------------------------------ *)
(* The cycle warm-up                                                   *)
(* ------------------------------------------------------------------ *)

let test_cycle_promise () =
  let rng = rng () in
  let r = 5 in
  let decider = Cycle_promise.ld_decider ~regime in
  let yes = Cycle_promise.yes_instance ~r in
  let no = Cycle_promise.no_instance ~regime ~r in
  let prom = Cycle_promise.promise ~regime in
  check bool "yes in promise" true (prom.Promise.promise yes);
  check bool "no in promise" true (prom.Promise.promise no);
  check bool "membership" true (prom.Promise.mem yes && not (prom.Promise.mem no));
  let eval expected lg =
    Decider.all_correct
      (Decider.evaluate ~rng ~regime ~assignments:60 decider ~expected ~instance:"" lg)
  in
  check bool "decider correct" true (eval true yes && eval false no);
  check bool "views covered at t=1" true
    (Cycle_promise.views_mutually_covered ~regime ~r ~t:1);
  check bool "views distinguishable at huge t" false
    (Cycle_promise.views_mutually_covered ~regime ~r ~t:r)

let () =
  Alcotest.run "tree-separation"
    [
      ("bounds", [ Alcotest.test_case "R(r) and pigeonhole" `Quick test_bounds ]);
      ( "classification",
        [
          Alcotest.test_case "T_r is Large" `Quick test_classify_large;
          Alcotest.test_case "every H+ is Small" `Quick test_classify_all_smalls;
          Alcotest.test_case "counterfeits are Neither" `Quick test_classify_counterfeits;
          Alcotest.test_case "membership predicates" `Quick test_membership_predicates;
          Alcotest.test_case "membership iso-invariant" `Quick test_membership_iso_invariant;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "accepts P'" `Quick test_verifier_accepts;
          Alcotest.test_case "rejects counterfeits" `Quick test_verifier_rejects_counterfeits;
          Alcotest.test_case "oblivious" `Quick test_verifier_is_genuinely_oblivious;
        ] );
      ( "decider",
        [
          Alcotest.test_case "exhaustive on tiny instances" `Quick
            test_p_decider_exhaustively_on_tiny;
          Alcotest.test_case "random assignments" `Quick test_p_decider_random;
        ] );
      ( "impossibility",
        [
          Alcotest.test_case "coverage full when predicted" `Quick
            test_coverage_full_when_predicted;
          Alcotest.test_case "coverage gaps when r < 2t+2" `Quick
            test_coverage_gaps_when_r_small;
          Alcotest.test_case "budgeted A* fails both ways" `Quick
            test_budgeted_a_star_two_failures;
        ] );
      ( "integration",
        [
          Alcotest.test_case "decider through the gossip engine" `Quick
            test_decider_through_message_passing;
          Alcotest.test_case "id dependence certified" `Quick
            test_p_decider_id_dependence_certified;
          Alcotest.test_case "oracle regime" `Quick
            test_cycle_promise_under_oracle_regime;
        ] );
      ("warm-up", [ Alcotest.test_case "cycle promise" `Quick test_cycle_promise ]);
    ]

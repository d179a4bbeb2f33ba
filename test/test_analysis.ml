(* Tests for the obliviousness certifier: the trace monitor and its
   input/synthetic provenance split, the certify verdict lattice
   (certified-oblivious, id-dependent with a confirmed witness,
   inconclusive on budget exhaustion), the nondeterminism flag, and
   the verdicts against brute-force obliviousness. *)

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
  match report.Analysis.rep_flags with
  | [ Analysis.Nondeterminism { nd_instance = "one"; nd_node = 0 } ] -> ()
  | _ -> Alcotest.fail "expected one nondeterminism flag at node 0"

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

(* ------------------------------------------------------------------ *)
(* The certifier against brute-force obliviousness                     *)
(* ------------------------------------------------------------------ *)

(* Instances of at most 7 nodes and degree at most 3, so every radius-1
   view has at most 4 nodes and [A*]'s exhaustive budget of 4 covers
   it. *)
let oracle_instances =
  let bits g = Labelled.init g (fun v -> v * 7 mod 3 mod 2) in
  [
    ("P4", bits (Gen.path 4));
    ("C5", bits (Gen.cycle 5));
    ("star4", bits (Gen.star 4));
    ("C6", Labelled.const (Gen.cycle 6) 0);
    ("tree7", bits (Gen.complete_binary_tree 2));
  ]

(* A decide that compares the centre's id with its neighbours'. *)
let min_id_alg =
  Algorithm.make ~name:"min-id" ~radius:1 (fun v ->
      let c = View.center_id v in
      View.center_label v = 1
      || List.for_all
           (fun u -> View.id v u > c)
           (List.init (View.order v) Fun.id
           |> List.filter (fun u -> u <> v.View.center)))

let oracle_deciders =
  let a_star =
    let ob = Simulation.a_star ~budget:(Simulation.Exhaustive 4) min_id_alg in
    Algorithm.make ~name:ob.Algorithm.ob_name ~radius:ob.Algorithm.ob_radius
      ob.Algorithm.ob_decide
  in
  [
    min_id_alg;
    Algorithm.make ~name:"fingerprint" ~radius:1 (fun v ->
        View.fingerprint Fun.id v mod 3 <> 0);
    Algorithm.make ~name:"degree-parity" ~radius:1 (fun v ->
        (View.order v + View.center_label v) mod 2 = 0);
    a_star;
  ]

(* Id-obliviousness by brute force over every assignment into
   [0 .. n-1] of the test tree's enumerator: does some assignment
   change some node's output from the first one's? *)
let brute_force_variance alg lg =
  let n = Labelled.order lg in
  let outputs ids = Runner.run alg lg ~ids:(Ids.of_array ids) in
  match Injections.all ~n ~bound:n () with
  | Seq.Nil -> false
  | Seq.Cons (first, rest) ->
      let reference = outputs first in
      Seq.exists (fun ids -> outputs ids <> reference) rest

(* The two implications that must hold: a certificate means no
   assignment changes an output, and a change means an id-dependent
   verdict whose witness is a read of the input ids. The converses do
   not hold (a decide may read an id and ignore it), so they are not
   asserted. Each side is seen at least once, so neither check is
   vacuous. *)
let test_certify_matches_brute_force () =
  let certified = ref 0 and varied = ref 0 in
  List.iter
    (fun (alg : (int, bool) Algorithm.t) ->
      List.iter
        (fun (name, lg) ->
          let where = alg.Algorithm.name ^ " on " ^ name in
          let report = Analysis.certify alg ~instances:[ (name, lg) ] in
          let variance = brute_force_variance alg lg in
          if variance then incr varied;
          match report.Analysis.rep_verdict with
          | Analysis.Certified_oblivious ->
              incr certified;
              if variance then
                Alcotest.failf "%s: certified oblivious, but an assignment \
                                changes an output" where
          | Analysis.Id_dependent
              {
                w_access =
                  ( View.Id_read { input = true; _ }
                  | View.Ids_read { input = true } );
                _;
              } ->
              ()
          | Analysis.Id_dependent _ ->
              Alcotest.failf "%s: the witness is not an input id read" where
          | Analysis.Inconclusive _ ->
              if variance then
                Alcotest.failf "%s: outputs vary, but the verdict is \
                                inconclusive" where)
        oracle_instances)
    oracle_deciders;
  check bool "some decider certified" true (!certified > 0);
  check bool "some outputs varied" true (!varied > 0)

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
          Alcotest.test_case "nondeterminism flag" `Quick
            test_certify_nondeterminism_flag;
          Alcotest.test_case "provenance on lent id arrays" `Quick
            test_certify_lent_provenance;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "verdicts agree with brute force" `Quick
            test_certify_matches_brute_force;
        ] );
    ]

(* Tests for the LOCAL-model simulator: identifier assignments and
   regimes, the execution engines (direct extraction, the asynchronous
   protocol and empty-plan gossip), obliviousness checking, the OI/PO
   comparison models and the round-based protocols. *)

open Locald_graph
open Locald_local

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rng () = Random.State.make [| 0xfeed |]

(* ------------------------------------------------------------------ *)
(* Identifier assignments                                              *)
(* ------------------------------------------------------------------ *)

let test_ids_validation () =
  let raised f = try ignore (f ()); false with Ids.Invalid_ids _ -> true in
  check bool "duplicates rejected" true (raised (fun () -> Ids.of_array [| 1; 1 |]));
  check bool "negative rejected" true (raised (fun () -> Ids.of_array [| -1; 0 |]));
  let ids = Ids.of_array [| 5; 3; 9 |] in
  check int "assign" 3 (Ids.assign ids 1);
  check int "max" 9 (Ids.max_id ids);
  check int "size" 3 (Ids.size ids)

let test_ids_generators () =
  let rng = rng () in
  let seq = Ids.sequential 5 in
  check (Alcotest.array int) "sequential" [| 0; 1; 2; 3; 4 |] (Ids.to_array seq);
  let sh = Ids.shuffled rng 30 in
  check (Alcotest.list int) "shuffled is a permutation"
    (List.init 30 Fun.id)
    (List.sort compare (Array.to_list (Ids.to_array sh)));
  let rb = Ids.random_below rng ~bound:100 20 in
  check bool "random_below respects bound" true
    (Array.for_all (fun id -> id < 100) (Ids.to_array rb));
  let off = Ids.offset seq 10 in
  check int "offset" 12 (Ids.assign off 2)

let test_enumerate_injections_count () =
  (* 3 nodes into 4 ids: 4 * 3 * 2 = 24 injections. *)
  let count = Seq.fold_left (fun acc _ -> acc + 1) 0 (Ids.enumerate_injections ~n:3 ~bound:4) in
  check int "injection count" 24 count;
  (* All distinct and valid. *)
  let all = List.of_seq (Ids.enumerate_injections ~n:2 ~bound:3) in
  let arrays = List.map Ids.to_array all in
  check int "distinct" (List.length arrays)
    (List.length (List.sort_uniq compare arrays))

let test_regimes () =
  let rng = rng () in
  let regime = Ids.f_linear_plus 2 in
  check bool "valid sample" true
    (Ids.respects regime ~n:10 (Ids.sample rng regime ~n:10));
  check bool "too-large id violates" false
    (Ids.respects regime ~n:3 (Ids.of_array [| 0; 1; 7 |]));
  check bool "unbounded accepts anything" true
    (Ids.respects Ids.Unbounded ~n:3 (Ids.of_array [| 0; 1; 1_000_000 |]));
  (* The oracle regime is monotone and >= identity. *)
  (match Ids.f_oracle ~seed:3 with
  | Ids.Bounded { f; _ } ->
      let mono = ref true in
      for n = 1 to 60 do
        if f n < f (n - 1) || f n < n then mono := false
      done;
      check bool "oracle f monotone and >= n" true !mono
  | Ids.Unbounded -> Alcotest.fail "oracle should be bounded")

(* ------------------------------------------------------------------ *)
(* Runner engines                                                      *)
(* ------------------------------------------------------------------ *)

(* An algorithm whose output depends on everything in the view:
   a hash of the sorted (id, label) pairs and the edge count. *)
let fingerprint_algorithm ~radius =
  Algorithm.make ~name:"fingerprint" ~radius (fun view ->
      let ids = match View.ids view with Some ids -> ids | None -> [||] in
      let pairs =
        Array.to_list (Array.mapi (fun v id -> (id, view.View.labels.(v))) ids)
      in
      Hashtbl.hash (List.sort compare pairs, Graph.size view.View.graph))

(* The message-passing engine: [t + 1] rounds of full-information
   gossip, run on the fault engine under the empty plan. *)
let gossip alg lg ~ids = Fault_runner.run ~plan:Faults.empty alg lg ~ids
let decided out = Array.map (fun o -> Fault_runner.Decided o) out

let test_engines_agree () =
  let rng = rng () in
  List.iter
    (fun g ->
      let lg = Labelled.init g (fun v -> v mod 3) in
      let ids = Ids.shuffled rng (Graph.order g) in
      List.iter
        (fun radius ->
          let alg = fingerprint_algorithm ~radius in
          let case = Printf.sprintf "(n=%d, t=%d)" (Graph.order g) radius in
          let direct = Runner.run alg lg ~ids in
          check (Alcotest.array int) ("async engine agrees " ^ case) direct
            (Runner.run ~backend:(Backend.Async Async_runner.default_config)
               alg lg ~ids);
          check bool ("gossip engine agrees " ^ case) true
            (fst (gossip alg lg ~ids) = decided direct))
        [ 0; 1; 2; 3 ])
    [ Gen.cycle 7; Gen.grid 3 4; Gen.complete_binary_tree 3; Gen.star 6 ]

let test_run_oblivious () =
  let lg = Labelled.init (Gen.cycle 5) (fun v -> v) in
  let ob =
    Algorithm.make_oblivious ~name:"sum" ~radius:1 (fun view ->
        Array.fold_left ( + ) 0 view.View.labels)
  in
  let out = Runner.run_oblivious ob lg in
  (* Node 0 sees labels {4, 0, 1}. *)
  check int "node 0" 5 out.(0)

let test_message_passing_stats () =
  let lg = Labelled.init (Gen.cycle 6) (fun v -> v) in
  let rng = rng () in
  let ids = Ids.shuffled rng 6 in
  let alg = fingerprint_algorithm ~radius:2 in
  let out, stats = gossip alg lg ~ids in
  check bool "outputs agree with the direct engine" true
    (out = decided (Runner.run alg lg ~ids));
  check int "rounds = radius + 1" 3 stats.Fault_runner.rounds;
  (* Each round sends over both directions of every edge. *)
  check int "messages = rounds * 2m" (3 * 2 * 6) stats.Fault_runner.messages;
  check bool "payload grows with knowledge" true
    (stats.Fault_runner.payload_items > 0);
  check bool "net never exceeds gross" true
    (stats.Fault_runner.new_items <= stats.Fault_runner.payload_items)

let prop_stats_formulae =
  QCheck2.Test.make ~name:"gossip stats formulae on random graphs" ~count:40
    QCheck2.Gen.(pair (int_range 2 14) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng ~n ~p:0.25 in
      let lg = Labelled.init g (fun v -> (v * 3) mod 4) in
      let ids = Ids.shuffled rng n in
      let radius = Random.State.int rng 3 in
      let alg = fingerprint_algorithm ~radius in
      let out, stats = gossip alg lg ~ids in
      stats.Fault_runner.rounds = radius + 1
      && stats.Fault_runner.messages = stats.Fault_runner.rounds * 2 * Graph.size g
      && stats.Fault_runner.payload_items > 0
      && stats.Fault_runner.new_items <= stats.Fault_runner.payload_items
      && out = decided (Runner.run alg lg ~ids))

let test_runner_size_mismatch () =
  let lg = Labelled.const (Gen.cycle 4) () in
  let alg = fingerprint_algorithm ~radius:1 in
  let raised =
    try ignore (Runner.run alg lg ~ids:(Ids.sequential 3)); false
    with Ids.Invalid_ids _ -> true
  in
  check bool "size mismatch rejected" true raised

(* ------------------------------------------------------------------ *)
(* Obliviousness checking                                              *)
(* ------------------------------------------------------------------ *)

let test_variance_detection () =
  let rng = rng () in
  let lg = Labelled.const (Gen.cycle 6) () in
  (* An algorithm that outputs its own id's parity: clearly not
     oblivious. *)
  let parity =
    Algorithm.make ~name:"parity" ~radius:0 (fun view ->
        View.center_id view mod 2 = 0)
  in
  check bool "variance found" true
    (Option.is_some
       (Oblivious.find_variance_sampled ~rng ~trials:40 ~regime:Ids.Unbounded
          parity lg));
  (* A label-only algorithm is oblivious. *)
  let ob = Algorithm.of_oblivious
      (Algorithm.make_oblivious ~name:"const" ~radius:1 (fun _ -> true))
  in
  check bool "no variance for oblivious" true
    (Oblivious.find_variance_sampled ~rng ~trials:40 ~regime:Ids.Unbounded ob lg
    = None)

let test_variance_exhaustive () =
  let lg = Labelled.const (Gen.path 3) () in
  let parity =
    Algorithm.make ~name:"parity" ~radius:0 (fun view ->
        View.center_id view mod 2 = 0)
  in
  check bool "exhaustive variance found" true
    (Option.is_some (Oblivious.find_variance_exhaustive ~bound:4 parity lg))

(* ------------------------------------------------------------------ *)
(* Randomised algorithms                                               *)
(* ------------------------------------------------------------------ *)

let test_geometric_and_fuel () =
  let rng = rng () in
  for _ = 1 to 100 do
    let l = Randomized.geometric rng in
    check bool "geometric >= 1" true (l >= 1)
  done;
  check int "4^0-ish base" 4 (Randomized.four_pow_capped ~cap:1000 1);
  check int "4^3" 64 (Randomized.four_pow_capped ~cap:1000 3);
  check int "cap saturates" 1000 (Randomized.four_pow_capped ~cap:1000 40)

(* ------------------------------------------------------------------ *)
(* OI and PO models                                                    *)
(* ------------------------------------------------------------------ *)

let test_order_invariant_wrapping () =
  let rng = rng () in
  let lg = Labelled.const (Gen.path 4) () in
  (* Rank-based decisions are invariant under monotone re-embedding. *)
  let oi =
    Models.order_invariant ~name:"is-local-min" ~radius:1 (fun view ->
        let ids = match View.ids view with Some ids -> ids | None -> [||] in
        let c = view.View.center in
        Array.for_all (fun u -> u = c || ids.(u) > ids.(c))
          (Array.init (View.order view) Fun.id))
  in
  check bool "order-invariant" true
    (Models.find_order_variance ~rng ~trials:50 oi lg = None);
  (* Magnitude-based decisions are not. *)
  let magnitude =
    Algorithm.make ~name:"big-id" ~radius:0 (fun view -> View.center_id view > 10)
  in
  check bool "magnitude not order-invariant" true
    (Option.is_some (Models.find_order_variance ~rng ~trials:100 magnitude lg))

let test_po_model () =
  let lg = Labelled.const (Gen.matching 3) () in
  let alg =
    {
      Models.po_name = "tail";
      po_decide =
        (fun pov ->
          match pov.Models.incident with
          | [ e ] -> e.Models.outward
          | _ -> false);
    }
  in
  let oriented = [ (0, 1); (2, 3); (4, 5) ] in
  let out = Models.run_po alg lg ~oriented in
  check (Alcotest.array bool) "orientation read back"
    [| true; false; true; false; true; false |]
    out;
  (* Orientation must cover the edge set exactly. *)
  let raised =
    try ignore (Models.run_po alg lg ~oriented:[ (0, 1) ]); false
    with Graph.Invalid_graph _ -> true
  in
  check bool "partial orientation rejected" true raised

(* ------------------------------------------------------------------ *)
(* Protocols and Cole-Vishkin                                          *)
(* ------------------------------------------------------------------ *)

let test_protocol_engine () =
  (* A toy protocol: every node computes the max id in the graph by
     flooding; halts after diameter+1 unchanged rounds (here: fixed
     round budget on a path). *)
  let proto =
    {
      Protocol.proto_name = "max-flood";
      init = (fun ~id ~degree:_ ~input:_ -> (id, 0));
      emit = (fun (m, _) -> m);
      halted = (fun (_, r) -> r >= 6);
      round =
        (fun (m, r) ~received ->
          (Array.fold_left max m received, r + 1));
    }
  in
  let lg = Labelled.const (Gen.path 7) () in
  let rng = rng () in
  let ids = Ids.shuffled rng 7 in
  let states, outcome = Protocol.run ~max_rounds:10 proto lg ~ids in
  check bool "all halted" true outcome.Protocol.all_halted;
  check int "rounds used" 6 outcome.Protocol.rounds_used;
  let global_max = Ids.max_id ids in
  Array.iter (fun (m, _) -> check int "max flooded" global_max m) states

let test_cole_vishkin_small () =
  let rng = rng () in
  List.iter
    (fun n ->
      let ids = Ids.shuffled rng n in
      let cols, outcome, _ = Symmetry.run_on_cycle ~n ~ids () in
      check bool "halted" true outcome.Protocol.all_halted;
      check bool
        (Printf.sprintf "proper 3-colouring on C%d" n)
        true
        (Symmetry.is_proper_colouring (Gen.cycle n) cols ~k:3))
    [ 3; 4; 5; 8; 17; 64 ]

let test_cole_vishkin_huge_ids () =
  (* Magnitude does not matter: offset the identifiers far beyond n. *)
  let rng = rng () in
  let n = 33 in
  let ids = Ids.offset (Ids.shuffled rng n) 1_000_000 in
  let cols, _, stable = Symmetry.run_on_cycle ~cv_rounds:16 ~n ~ids () in
  check bool "proper with huge ids" true
    (Symmetry.is_proper_colouring (Gen.cycle n) cols ~k:3);
  (* log* of anything representable is tiny. *)
  check bool "stabilises in very few iterations" true (stable <= 6)

let test_cole_vishkin_log_star_flat () =
  (* The measured stabilisation iteration barely moves while n grows
     by two orders of magnitude. *)
  let rng = rng () in
  let measure n =
    let ids = Ids.shuffled rng n in
    let _, _, stable = Symmetry.run_on_cycle ~n ~ids () in
    stable
  in
  let small = measure 8 and large = measure 512 in
  check bool "log* flatness" true (large <= small + 2)

let test_luby_mis () =
  let rng = rng () in
  List.iteri
    (fun i g ->
      let n = Graph.order g in
      let ids = Ids.shuffled rng n in
      let labels, outcome = Symmetry.run_luby ~seed:(i + 1) ~max_rounds:60 g ~ids in
      check bool "terminates" true outcome.Protocol.all_halted;
      let lg = Labelled.make g labels in
      check bool "result is an MIS" true
        ((Locald_decision.Lcl.property Locald_decision.Lcl.maximal_independent_set)
           .Locald_decision.Property.mem lg))
    [ Gen.cycle 9; Gen.grid 5 5; Gen.complete 6; Gen.complete_binary_tree 4;
      Gen.random_connected (Random.State.make [| 3 |]) ~n:40 ~p:0.1 ]

let prop_luby_mis_random =
  QCheck2.Test.make ~name:"Luby MIS valid on random graphs" ~count:40
    QCheck2.Gen.(pair (int_range 3 25) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng ~n ~p:0.2 in
      let ids = Ids.shuffled rng n in
      let labels, outcome = Symmetry.run_luby ~seed ~max_rounds:80 g ~ids in
      outcome.Protocol.all_halted
      && (Locald_decision.Lcl.property
            Locald_decision.Lcl.maximal_independent_set)
           .Locald_decision.Property.mem
           (Labelled.make g labels))

(* ------------------------------------------------------------------ *)
(* qcheck: engine agreement on random graphs                           *)
(* ------------------------------------------------------------------ *)

let prop_engines_agree =
  QCheck2.Test.make ~name:"direct = message-passing on random graphs" ~count:40
    QCheck2.Gen.(pair (int_range 2 14) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng ~n ~p:0.25 in
      let lg = Labelled.init g (fun v -> (v * 7) mod 5) in
      let ids = Ids.shuffled rng n in
      let radius = Random.State.int rng 3 in
      let alg = fingerprint_algorithm ~radius in
      decided (Runner.run alg lg ~ids) = fst (gossip alg lg ~ids))

let () =
  Alcotest.run "local"
    [
      ( "ids",
        [
          Alcotest.test_case "validation" `Quick test_ids_validation;
          Alcotest.test_case "generators" `Quick test_ids_generators;
          Alcotest.test_case "injection enumeration" `Quick test_enumerate_injections_count;
          Alcotest.test_case "regimes" `Quick test_regimes;
        ] );
      ( "runner",
        [
          Alcotest.test_case "engines agree" `Quick test_engines_agree;
          Alcotest.test_case "oblivious runs" `Quick test_run_oblivious;
          Alcotest.test_case "communication stats" `Quick test_message_passing_stats;
          Alcotest.test_case "size mismatch" `Quick test_runner_size_mismatch;
          QCheck_alcotest.to_alcotest prop_stats_formulae;
        ] );
      ( "obliviousness",
        [
          Alcotest.test_case "sampled variance" `Quick test_variance_detection;
          Alcotest.test_case "exhaustive variance" `Quick test_variance_exhaustive;
        ] );
      ( "randomised",
        [ Alcotest.test_case "geometric fuel" `Quick test_geometric_and_fuel ] );
      ( "models",
        [
          Alcotest.test_case "order invariance" `Quick test_order_invariant_wrapping;
          Alcotest.test_case "port numbering" `Quick test_po_model;
        ] );
      ( "protocols",
        [
          Alcotest.test_case "engine (max flooding)" `Quick test_protocol_engine;
          Alcotest.test_case "Cole-Vishkin colours cycles" `Quick test_cole_vishkin_small;
          Alcotest.test_case "magnitude-independence" `Quick test_cole_vishkin_huge_ids;
          Alcotest.test_case "log* flatness" `Quick test_cole_vishkin_log_star_flat;
          Alcotest.test_case "Luby MIS" `Quick test_luby_mis;
          QCheck_alcotest.to_alcotest prop_luby_mis_random;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_engines_agree ]);
    ]

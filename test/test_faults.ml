(* Tests for the fault-injection layer: plan validation and coin
   determinism, the two invariants of the faulted gossip engine
   (empty-plan identity, seeded determinism), its bandwidth
   accounting, graceful degradation (crashes, incomplete views, fuel
   budgets, raising deciders), and the three-valued verdict
   aggregation. *)

open Locald_graph
open Locald_local
open Locald_decision

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rng () = Random.State.make [| 0xfa17 |]

(* An algorithm whose output depends on everything in the view:
   a hash of the sorted (id, label) pairs and the edge count. *)
let fingerprint_algorithm ~radius =
  Algorithm.make ~name:"fingerprint" ~radius (fun view ->
      let ids = match View.ids view with Some ids -> ids | None -> [||] in
      let pairs =
        Array.to_list (Array.mapi (fun v id -> (id, view.View.labels.(v))) ids)
      in
      Hashtbl.hash (List.sort compare pairs, Graph.size view.View.graph))

let test_graphs =
  [ Gen.cycle 7; Gen.grid 3 4; Gen.complete_binary_tree 3; Gen.star 6;
    Gen.path 5 ]

(* ------------------------------------------------------------------ *)
(* Plans and coins                                                     *)
(* ------------------------------------------------------------------ *)

let test_plan_validation () =
  let rejected f = try ignore (f ()); false with Invalid_argument _ -> true in
  check bool "drop > 1 rejected" true
    (rejected (fun () -> Faults.make ~drop:1.5 ()));
  check bool "negative duplicate rejected" true
    (rejected (fun () -> Faults.make ~duplicate:(-0.1) ()));
  check bool "negative retries rejected" true
    (rejected (fun () -> Faults.make ~retries:(-1) ()));
  check bool "negative fuel rejected" true
    (rejected (fun () -> Faults.make ~fuel:(-3) ()));
  check bool "crash round 0 rejected" true
    (rejected (fun () -> Faults.make ~crashes:[ (0, 0) ] ()));
  check bool "negative crash node rejected" true
    (rejected (fun () -> Faults.make ~crashes:[ (-1, 1) ] ()));
  check bool "empty plan is empty" true (Faults.is_empty Faults.empty);
  (* Retries alone cannot change any view: still "empty". *)
  check bool "retries-only plan is empty" true
    (Faults.is_empty (Faults.make ~retries:3 ()));
  check bool "dropping plan is not empty" false
    (Faults.is_empty (Faults.make ~drop:0.01 ()))

let test_crash_round () =
  let plan = Faults.make ~crashes:[ (4, 3); (4, 1); (2, 2) ] () in
  check (Alcotest.option int) "earliest round wins" (Some 1)
    (Faults.crash_round plan 4);
  check (Alcotest.option int) "other node" (Some 2) (Faults.crash_round plan 2);
  check (Alcotest.option int) "uncrashed node" None (Faults.crash_round plan 0)

let test_coins_deterministic () =
  let plan = Faults.make ~seed:42 ~drop:0.5 ~duplicate:0.5 () in
  (* Pure in all arguments: same coin twice, and the empirical rate is
     in the right ballpark. *)
  let hits = ref 0 in
  for i = 0 to 999 do
    let a = Faults.drops plan ~round:2 ~src:i ~dst:(i + 1) in
    let b = Faults.drops plan ~round:2 ~src:i ~dst:(i + 1) in
    check bool "coin is pure" a b;
    if a then incr hits
  done;
  check bool "drop rate near 1/2" true (!hits > 400 && !hits < 600);
  (* Distinct (round, src, dst) triples are (almost surely) not all
     equal, and drop/duplicate coins are independent streams. *)
  check bool "coins vary across rounds" true
    (List.exists
       (fun r ->
         Faults.drops plan ~round:r ~src:0 ~dst:1
         <> Faults.drops plan ~round:(r + 1) ~src:0 ~dst:1)
       [ 1; 2; 3; 4; 5 ]);
  let plan' = Faults.make ~seed:43 ~drop:0.5 () in
  check bool "seed matters" true
    (List.exists
       (fun i ->
         Faults.drops plan ~round:1 ~src:i ~dst:0
         <> Faults.drops plan' ~round:1 ~src:i ~dst:0)
       [ 0; 1; 2; 3; 4; 5; 6; 7 ])

(* ------------------------------------------------------------------ *)
(* Invariant 1: empty-plan identity                                    *)
(* ------------------------------------------------------------------ *)

(* Message passing against direct extraction: under the empty plan
   every node decides, with the output [Runner.run] computes from the
   node's extracted view. *)
let test_empty_plan_identity () =
  let rng = rng () in
  List.iter
    (fun g ->
      let lg = Labelled.init g (fun v -> v mod 3) in
      let ids = Ids.shuffled rng (Graph.order g) in
      List.iter
        (fun radius ->
          let alg = fingerprint_algorithm ~radius in
          let expected = Runner.run alg lg ~ids in
          let outcomes = Fault_runner.run_outputs ~plan:Faults.empty alg lg ~ids in
          Array.iteri
            (fun v outcome ->
              match outcome with
              | Fault_runner.Decided o ->
                  check int
                    (Printf.sprintf "node %d agrees (n=%d, t=%d)" v
                       (Graph.order g) radius)
                    expected.(v) o
              | Fault_runner.Unknown r ->
                  Alcotest.failf "node %d unknown (%s) under the empty plan" v
                    (Fault_runner.reason_name r))
            outcomes)
        [ 0; 1; 2; 3 ])
    test_graphs

let test_empty_plan_stats () =
  (* Under the empty plan every message is delivered exactly once and
     no node degrades. *)
  let lg = Labelled.init (Gen.grid 3 4) (fun v -> v mod 2) in
  let ids = Ids.sequential 12 in
  let alg = fingerprint_algorithm ~radius:2 in
  let _, faulted = Fault_runner.run ~plan:Faults.empty alg lg ~ids in
  check int "delivered = messages" faulted.Fault_runner.messages
    faulted.Fault_runner.delivered;
  check int "nothing dropped" 0 faulted.Fault_runner.dropped;
  check int "nothing degraded" 0 (Fault_runner.degraded_nodes faulted)

(* ------------------------------------------------------------------ *)
(* Bandwidth accounting                                                *)
(* ------------------------------------------------------------------ *)

let test_stats_exact_accounting () =
  (* The 2-path at radius 1, worked by hand. Two rounds over one edge:
     4 messages. Round 1 carries each node's initial self-knowledge
     (1 item each, both new); by round 2 both nodes know everything
     (2 nodes + 1 edge = 3 items each), all redundant. *)
  let lg = Labelled.init (Gen.path 2) (fun v -> v) in
  let alg = fingerprint_algorithm ~radius:1 in
  let _, stats =
    Fault_runner.run ~plan:Faults.empty alg lg ~ids:(Ids.sequential 2)
  in
  check int "rounds" 2 stats.Fault_runner.rounds;
  check int "messages" 4 stats.Fault_runner.messages;
  check int "gross payload" (2 + 6) stats.Fault_runner.payload_items;
  check int "net payload" 2 stats.Fault_runner.new_items

(* Rings of 3-14 nodes (test_local runs the same formulae on random
   connected graphs): the round and message counts follow from the
   radius and the edge count, net bandwidth never exceeds gross, and
   every node decides with [Runner.run]'s output. *)
let prop_gossip_stats =
  QCheck2.Test.make ~name:"gossip stats formulae on rings" ~count:40
    QCheck2.Gen.(pair (int_range 3 14) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.cycle n in
      let lg = Labelled.init g (fun v -> (v * 7) mod 5) in
      let ids = Ids.shuffled rng n in
      let radius = Random.State.int rng 3 in
      let alg = fingerprint_algorithm ~radius in
      let outcomes, stats = Fault_runner.run ~plan:Faults.empty alg lg ~ids in
      stats.Fault_runner.rounds = radius + 1
      && stats.Fault_runner.messages = stats.Fault_runner.rounds * 2 * Graph.size g
      && stats.Fault_runner.payload_items > 0
      && stats.Fault_runner.new_items <= stats.Fault_runner.payload_items
      && outcomes
         = Array.map (fun o -> Fault_runner.Decided o) (Runner.run alg lg ~ids))

(* ------------------------------------------------------------------ *)
(* Invariant 2: seeded determinism                                     *)
(* ------------------------------------------------------------------ *)

let test_seeded_determinism () =
  let lg = Labelled.init (Gen.grid 4 4) (fun v -> v mod 3) in
  let ids = Ids.shuffled (rng ()) 16 in
  let alg = fingerprint_algorithm ~radius:2 in
  let plan =
    Faults.make ~seed:7 ~drop:0.2 ~duplicate:0.1 ~crashes:[ (3, 2) ] ~retries:1
      ()
  in
  let run () = Fault_runner.run ~plan alg lg ~ids in
  let out1, stats1 = run () in
  let out2, stats2 = run () in
  check bool "identical outcomes" true (out1 = out2);
  check bool "identical stats" true (stats1 = stats2);
  (* A different seed gives a genuinely different trace. *)
  let out3, _ =
    Fault_runner.run ~plan:{ plan with Faults.seed = 8 } alg lg ~ids
  in
  check bool "another seed differs" true (out1 <> out3)

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                *)
(* ------------------------------------------------------------------ *)

let test_total_loss () =
  let lg = Labelled.init (Gen.cycle 6) (fun v -> v) in
  let ids = Ids.sequential 6 in
  let plan = Faults.make ~drop:1.0 () in
  (* Radius 1 needs the neighbours: with every message lost, every
     node's ball stays incomplete. *)
  let outcomes, stats =
    Fault_runner.run ~plan (fingerprint_algorithm ~radius:1) lg ~ids
  in
  Array.iter
    (fun o ->
      check bool "incomplete view" true
        (o = Fault_runner.Unknown Fault_runner.Incomplete_view))
    outcomes;
  check int "all degraded" 6 (Fault_runner.degraded_nodes stats);
  check int "everything dropped" stats.Fault_runner.messages
    stats.Fault_runner.dropped;
  (* Radius 0 needs no messages at all: still decided. *)
  let outcomes0 =
    Fault_runner.run_outputs ~plan (fingerprint_algorithm ~radius:0) lg ~ids
  in
  check bool "radius 0 unaffected" true
    (Array.for_all Fault_runner.decided outcomes0)

let test_crash_stop () =
  let lg = Labelled.init (Gen.star 5) (fun v -> v mod 2) in
  let ids = Ids.sequential (Labelled.order lg) in
  let plan = Faults.make ~crashes:[ (0, 1) ] () in
  (* The hub of the star crashes before sending anything: it answers
     Unknown Crashed, and no leaf can complete its radius-1 ball. *)
  let outcomes, stats =
    Fault_runner.run ~plan (fingerprint_algorithm ~radius:1) lg ~ids
  in
  check bool "crashed node unknown" true
    (outcomes.(0) = Fault_runner.Unknown Fault_runner.Crashed);
  check int "one crash counted" 1 stats.Fault_runner.crashed;
  Array.iteri
    (fun v o ->
      if v > 0 then
        check bool
          (Printf.sprintf "leaf %d starved" v)
          true
          (o = Fault_runner.Unknown Fault_runner.Incomplete_view))
    outcomes

let test_fuel_exhaustion () =
  let lg = Labelled.init (Gen.cycle 8) (fun v -> v) in
  let ids = Ids.sequential 8 in
  (* The default cost model charges one unit per view node; a radius-1
     view on a cycle has 3 nodes, so fuel 2 starves every node — and
     must do so by answering Unknown, never by raising. *)
  let plan = Faults.make ~fuel:2 () in
  let outcomes, stats =
    Fault_runner.run ~plan (fingerprint_algorithm ~radius:1) lg ~ids
  in
  Array.iter
    (fun o ->
      check bool "fuel exhausted" true
        (o = Fault_runner.Unknown Fault_runner.Fuel_exhausted))
    outcomes;
  check int "metered" 8 stats.Fault_runner.fuel_exhausted;
  (* Fuel 3 is exactly enough. *)
  let outcomes' =
    Fault_runner.run_outputs ~plan:(Faults.make ~fuel:3 ())
      (fingerprint_algorithm ~radius:1) lg ~ids
  in
  check bool "exact budget suffices" true
    (Array.for_all Fault_runner.decided outcomes');
  (* A custom cost model overrides the default. *)
  let outcomes'' =
    Fault_runner.run_outputs ~plan ~cost:(fun _ -> 1)
      (fingerprint_algorithm ~radius:1) lg ~ids
  in
  check bool "custom cost" true (Array.for_all Fault_runner.decided outcomes'')

let test_decide_failure () =
  let lg = Labelled.init (Gen.path 4) (fun v -> v) in
  let ids = Ids.sequential 4 in
  let bomb =
    Algorithm.make ~name:"bomb" ~radius:1 (fun view ->
        if View.order view < 3 then failwith "endpoint" else 1)
  in
  (* The two endpoints' views have 2 nodes: their decide raises, which
     the runner turns into Unknown Decide_failed. *)
  let outcomes = Fault_runner.run_outputs ~plan:Faults.empty bomb lg ~ids in
  check bool "endpoint 0 caught" true
    (outcomes.(0) = Fault_runner.Unknown Fault_runner.Decide_failed);
  check bool "endpoint 3 caught" true
    (outcomes.(3) = Fault_runner.Unknown Fault_runner.Decide_failed);
  check bool "inner nodes decided" true
    (Fault_runner.decided outcomes.(1) && Fault_runner.decided outcomes.(2))

let test_duplicates_invisible () =
  (* Merges are idempotent: duplicate deliveries change the bandwidth
     meters but never the outputs. *)
  let lg = Labelled.init (Gen.grid 3 3) (fun v -> v mod 2) in
  let ids = Ids.shuffled (rng ()) 9 in
  let alg = fingerprint_algorithm ~radius:2 in
  let plan = Faults.make ~seed:5 ~duplicate:1.0 () in
  let outcomes, stats = Fault_runner.run ~plan alg lg ~ids in
  let expected = Runner.run alg lg ~ids in
  Array.iteri
    (fun v o ->
      match o with
      | Fault_runner.Decided x -> check int "output unchanged" expected.(v) x
      | Fault_runner.Unknown _ -> Alcotest.fail "duplicates degraded a node")
    outcomes;
  check int "every message duplicated" stats.Fault_runner.messages
    stats.Fault_runner.duplicated;
  check int "delivered twice" (2 * stats.Fault_runner.messages)
    stats.Fault_runner.delivered

let test_retries_recover () =
  (* Re-gossip rounds recover knowledge lost to drops: across a batch
     of seeds, generous retries leave (weakly) fewer incomplete nodes
     than none, and strictly fewer somewhere in the batch. *)
  let lg = Labelled.init (Gen.cycle 8) (fun v -> v) in
  let ids = Ids.sequential 8 in
  let alg = fingerprint_algorithm ~radius:2 in
  let incomplete ~seed ~retries =
    let plan = Faults.make ~seed ~drop:0.3 ~retries () in
    let _, stats = Fault_runner.run ~plan alg lg ~ids in
    stats.Fault_runner.incomplete
  in
  let total retries =
    List.fold_left
      (fun acc seed -> acc + incomplete ~seed ~retries)
      0
      [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
  in
  let without = total 0 and with_retries = total 4 in
  check bool
    (Printf.sprintf "retries help (%d -> %d)" without with_retries)
    true
    (with_retries < without)

(* ------------------------------------------------------------------ *)
(* Soundness: every Decided output is the fault-free output            *)
(* ------------------------------------------------------------------ *)

let prop_decided_outputs_sound =
  QCheck2.Test.make
    ~name:"faulted Decided outputs equal the fault-free outputs" ~count:60
    QCheck2.Gen.(triple (int_range 3 14) (int_bound 1_000_000) (int_bound 2))
    (fun (n, seed, radius) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng ~n ~p:0.3 in
      let lg = Labelled.init g (fun v -> (v * 5) mod 3) in
      let ids = Ids.shuffled rng n in
      let alg = fingerprint_algorithm ~radius in
      let expected = Runner.run alg lg ~ids in
      let plan =
        Faults.make ~seed ~drop:0.25 ~duplicate:0.1
          ~crashes:[ (Random.State.int rng n, 1 + Random.State.int rng 2) ]
          ~retries:(Random.State.int rng 3)
          ()
      in
      let outcomes = Fault_runner.run_outputs ~plan alg lg ~ids in
      Array.for_all2
        (fun outcome e ->
          match outcome with
          | Fault_runner.Decided o -> o = e
          | Fault_runner.Unknown _ -> true)
        outcomes expected)

(* ------------------------------------------------------------------ *)
(* Verdict aggregation and the faulted decider                         *)
(* ------------------------------------------------------------------ *)

let test_outcome_aggregation () =
  let open Verdict.Outcome in
  let d = Verdict.of_outcomes [| Accept; Accept; Accept |] in
  check bool "all yes accepts" true (Verdict.accepts d.Verdict.verdict);
  check bool "decisive" true (Verdict.decisive d);
  let d = Verdict.of_outcomes [| Accept; Reject; Accept |] in
  check bool "one no rejects" true (Verdict.rejects d.Verdict.verdict);
  let d = Verdict.of_outcomes [| Accept; Unknown; Reject; Unknown |] in
  check bool "unknowns degrade" true (Verdict.degraded d);
  check (Alcotest.list int) "unknown set" [ 1; 3 ] d.Verdict.unknowns;
  (* ... but a Reject among the decided nodes keeps its force. *)
  check bool "reject survives degradation" true
    (Verdict.rejects d.Verdict.verdict)

let test_decider_degrades_not_lies () =
  (* An accepting instance under heavy loss must degrade (or stay
     correct) — it must never flip to a decisive wrong answer. This is
     the "no spurious separations" guarantee at the decider level. *)
  let lg = Labelled.init (Gen.grid 4 4) (fun v -> v mod 2) in
  let always_yes = Algorithm.make ~name:"yes" ~radius:1 (fun _ -> true) in
  let rng = rng () in
  for seed = 0 to 19 do
    let plan = Faults.make ~seed ~drop:0.5 () in
    let ids = Ids.shuffled rng 16 in
    let d, _ = Decider.decide_faulty ~plan always_yes lg ~ids in
    if Verdict.decisive d then
      check bool "decisive implies correct" true
        (Verdict.accepts d.Verdict.verdict)
  done

let test_evaluate_faulty_tallies () =
  let lg = Labelled.init (Gen.cycle 9) (fun v -> v mod 3) in
  let always_yes = Algorithm.make ~name:"yes" ~radius:1 (fun _ -> true) in
  let plan = Faults.make ~seed:3 ~drop:0.3 () in
  let e =
    Decider.evaluate_faulty ~rng:(rng ()) ~regime:(Ids.f_linear_plus 1)
      ~runs:12 ~plan always_yes ~expected:true ~instance:"C9" lg
  in
  check int "runs" 12 e.Decider.f_runs;
  check int "tallies partition the runs" 12
    (e.Decider.f_correct + e.Decider.f_wrong + e.Decider.f_degraded);
  check int "never wrong" 0 e.Decider.f_wrong;
  check bool "loss was injected" true (e.Decider.f_dropped > 0)

let () =
  Alcotest.run "faults"
    [
      ( "plans",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "crash rounds" `Quick test_crash_round;
          Alcotest.test_case "coin determinism" `Quick test_coins_deterministic;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "empty-plan identity" `Quick test_empty_plan_identity;
          Alcotest.test_case "empty-plan stats" `Quick test_empty_plan_stats;
          Alcotest.test_case "seeded determinism" `Quick test_seeded_determinism;
        ] );
      ( "runner",
        [
          Alcotest.test_case "exact accounting" `Quick test_stats_exact_accounting;
          QCheck_alcotest.to_alcotest prop_gossip_stats;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "total loss" `Quick test_total_loss;
          Alcotest.test_case "crash-stop" `Quick test_crash_stop;
          Alcotest.test_case "fuel exhaustion" `Quick test_fuel_exhaustion;
          Alcotest.test_case "decide failure" `Quick test_decide_failure;
          Alcotest.test_case "duplicates invisible" `Quick test_duplicates_invisible;
          Alcotest.test_case "retries recover" `Quick test_retries_recover;
        ] );
      ( "soundness",
        [ QCheck_alcotest.to_alcotest prop_decided_outputs_sound ] );
      ( "verdicts",
        [
          Alcotest.test_case "aggregation" `Quick test_outcome_aggregation;
          Alcotest.test_case "degrades, never lies" `Quick
            test_decider_degrades_not_lies;
          Alcotest.test_case "faulted evaluation" `Quick
            test_evaluate_faulty_tallies;
        ] );
    ]

(* Tests for the decision layer: verdicts, properties, deciders, the
   Id-oblivious simulation A*, promise problems, hereditariness, LCL
   specs, the assignment quotient, and the oracle that checks the
   cached decide paths against the LD definition. *)

open Locald_graph
open Locald_local
open Locald_decision

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let rng () = Random.State.make [| 0xdec1de |]

(* ------------------------------------------------------------------ *)
(* Verdicts                                                            *)
(* ------------------------------------------------------------------ *)

let test_verdict () =
  check bool "all yes accepts" true (Verdict.accepts (Verdict.of_outputs [| true; true |]));
  (match Verdict.of_outputs [| true; false; false |] with
  | Verdict.Reject nos -> check (Alcotest.list int) "no-sayers" [ 1; 2 ] nos
  | Verdict.Accept -> Alcotest.fail "should reject");
  check bool "empty accepts" true (Verdict.accepts (Verdict.of_outputs [||]))

(* ------------------------------------------------------------------ *)
(* Properties                                                          *)
(* ------------------------------------------------------------------ *)

let test_stock_properties () =
  let col = Property.proper_colouring ~k:3 in
  check bool "good colouring" true
    (col.Property.mem (Labelled.init (Gen.cycle 6) (fun v -> v mod 3)));
  check bool "bad colouring" false
    (col.Property.mem (Labelled.const (Gen.cycle 6) 0));
  check bool "colour out of range" false
    (col.Property.mem (Labelled.const (Gen.path 2) 5));
  let mis = Property.maximal_independent_set in
  (* Alternating set on a path: maximal and independent. *)
  check bool "MIS yes" true
    (mis.Property.mem (Labelled.init (Gen.path 5) (fun v -> v mod 2)));
  (* Empty set is not maximal. *)
  check bool "empty not maximal" false
    (mis.Property.mem (Labelled.const (Gen.path 5) 0));
  (* Adjacent members are not independent. *)
  check bool "clump not independent" false
    (mis.Property.mem (Labelled.const (Gen.path 3) 1))

let test_invariance_checker () =
  let rng = rng () in
  let col = Property.proper_colouring ~k:3 in
  check bool "colouring invariant" true
    (Property.check_invariance ~rng ~trials:25 col
       (Labelled.init (Gen.cycle 9) (fun v -> v mod 3)));
  (* A property peeking at node numbering is caught. *)
  let bogus = Property.make ~name:"node-0-is-red" (fun lg -> Labelled.label lg 0 = 0) in
  check bool "bogus property caught" false
    (Property.check_invariance ~rng ~trials:60 bogus
       (Labelled.init (Gen.cycle 9) (fun v -> v mod 3)))

(* ------------------------------------------------------------------ *)
(* Deciders                                                            *)
(* ------------------------------------------------------------------ *)

let colouring_decider =
  Algorithm.of_oblivious
    (Algorithm.make_oblivious ~name:"3col" ~radius:1 (fun view ->
         let c = View.center_label view in
         c >= 0 && c < 3
         && Array.for_all
              (fun u -> view.View.labels.(u) <> c)
              (Graph.neighbours view.View.graph view.View.center)))

let test_decide_and_evaluate () =
  let rng = rng () in
  let yes = Labelled.init (Gen.cycle 6) (fun v -> v mod 3) in
  let no = Labelled.const (Gen.cycle 6) 1 in
  let ids = Ids.sequential 6 in
  check bool "accepts yes" true (Verdict.accepts (Decider.decide colouring_decider yes ~ids));
  check bool "rejects no" true (Verdict.rejects (Decider.decide colouring_decider no ~ids));
  let e =
    Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:20 colouring_decider
      ~expected:true ~instance:"cycle" yes
  in
  check bool "evaluation all correct" true (Decider.all_correct e);
  check int "assignments counted" 20 e.Decider.assignments;
  let e' =
    Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:20 colouring_decider
      ~expected:true ~instance:"wrong-expectation" no
  in
  check int "all wrong when expectation flipped" 20 e'.Decider.wrong;
  check bool "failure witness recorded" true (e'.Decider.failure <> None)

let test_evaluate_exhaustive () =
  let yes = Labelled.init (Gen.path 3) (fun v -> v mod 2) in
  let e =
    Decider.evaluate_exhaustive ~bound:4 colouring_decider ~expected:true
      ~instance:"path" yes
  in
  check int "4P3 assignments" 24 e.Decider.assignments;
  check bool "all correct" true (Decider.all_correct e)

(* ------------------------------------------------------------------ *)
(* The simulation A*                                                   *)
(* ------------------------------------------------------------------ *)

(* The min-id-blaming decider: correct for 2-colouring but genuinely
   id-dependent (only the smaller endpoint of a violated edge says
   no). *)
let blaming_decider =
  Algorithm.make ~name:"blame-min" ~radius:1 (fun view ->
      let ids = match View.ids view with Some ids -> ids | None -> [||] in
      let c = view.View.center in
      let violators =
        Array.to_list (Graph.neighbours view.View.graph c)
        |> List.filter (fun u -> view.View.labels.(u) = view.View.labels.(c))
      in
      not (List.exists (fun u -> ids.(c) < ids.(u)) violators))

let test_a_star_recovers_obliviousness () =
  let rng = rng () in
  let yes = Labelled.init (Gen.path 5) (fun v -> v mod 2) in
  let no = Labelled.make (Gen.path 4) [| 0; 1; 1; 0 |] in
  (* The base decider is correct... *)
  check bool "base correct on yes" true
    (Decider.all_correct
       (Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:30 blaming_decider
          ~expected:true ~instance:"" yes));
  check bool "base correct on no" true
    (Decider.all_correct
       (Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:30 blaming_decider
          ~expected:false ~instance:"" no));
  (* ... but id-dependent ... *)
  check bool "base is id-dependent" true
    (Option.is_some
       (Oblivious.find_variance_sampled ~rng ~trials:60 ~regime:Ids.Unbounded
          blaming_decider no));
  (* ... and A* decides the same property obliviously. *)
  let simulated = Simulation.a_star ~budget:(Simulation.Exhaustive 5) blaming_decider in
  check bool "A* accepts yes" true
    (Verdict.accepts (Decider.decide_oblivious simulated yes));
  check bool "A* rejects no" true
    (Verdict.rejects (Decider.decide_oblivious simulated no))

(* The assignments [A*] tries on one view: every injection below the
   bound in lexicographic order, or the seeded draws, up to the first
   no; a view with more nodes than the bound has no injection. *)
let test_budget_streams () =
  let tried = ref [] and say_no_at = ref 0 in
  let recorder =
    Algorithm.make ~name:"recorder" ~radius:1 (fun v ->
        tried := Array.init (View.order v) (View.id v) :: !tried;
        List.length !tried <> !say_no_at)
  in
  let view = View.extract (Labelled.const (Gen.path 2) 0) ~center:0 ~radius:1 in
  let tries ?(no_at = 0) budget =
    tried := [];
    say_no_at := no_at;
    let yes = (Simulation.a_star ~budget recorder).Algorithm.ob_decide view in
    check bool "yes iff no assignment said no" (no_at = 0) yes;
    List.rev !tried
  in
  check
    Alcotest.(list (array int))
    "exhaustive 3 ids, 2 nodes, lexicographic"
    [ [| 0; 1 |]; [| 0; 2 |]; [| 1; 0 |]; [| 1; 2 |]; [| 2; 0 |]; [| 2; 1 |] ]
    (tries (Simulation.Exhaustive 3));
  check int "stops at the first no" 4
    (List.length (tries ~no_at:4 (Simulation.Exhaustive 3)));
  check int "sampled count" 7
    (List.length
       (tries (Simulation.Sampled { bound = 10; trials = 7; seed = 1 })));
  match tries (Simulation.Exhaustive 1) with
  | exception Ids.Invalid_ids _ -> ()
  | _ -> Alcotest.fail "two nodes injected into one id"

(* ------------------------------------------------------------------ *)
(* Hereditariness                                                      *)
(* ------------------------------------------------------------------ *)

let test_hereditary_positive () =
  let rng = rng () in
  let col = Property.proper_colouring ~k:3 in
  List.iter
    (fun lg ->
      check bool "3-colouring is hereditary (no violation found)" true
        (Hereditary.connected_induced_counterexample ~rng ~samples:100 col lg
        = None))
    [
      Labelled.init (Gen.cycle 9) (fun v -> v mod 3);
      Labelled.init (Gen.grid 3 3) (fun v -> ((v mod 3) + (v / 3)) mod 3);
    ]

let test_hereditary_negative () =
  let rng = rng () in
  let mis = Property.maximal_independent_set in
  let lg = Labelled.init (Gen.path 7) (fun v -> v mod 2) in
  (match Hereditary.connected_induced_counterexample ~rng ~samples:100 mis lg with
  | None -> Alcotest.fail "MIS should not be hereditary"
  | Some w ->
      (* The witness really is a violating connected induced subgraph. *)
      let sub, _ = Labelled.induced lg w.Hereditary.subgraph_nodes in
      check bool "witness violates" false (mis.Property.mem sub);
      check bool "witness connected" true
        (Graph.is_connected (Labelled.graph sub)));
  (* Non-members have no say. *)
  check bool "no counterexample on a no-instance" true
    (Hereditary.connected_induced_counterexample ~rng ~samples:50 mis
       (Labelled.const (Gen.path 4) 0)
    = None)

(* ------------------------------------------------------------------ *)
(* NLD context: nondeterministic local decision                       *)
(* ------------------------------------------------------------------ *)

let test_nld_beats_ld_here () =
  (* Even-vs-odd long cycles are locally indistinguishable — their
     views are pairwise isomorphic — so no local decider (with or
     without ids) exists for bipartiteness, which NLD certifies with
     one bit per node (a 2-colouring). *)
  let even = Labelled.const (Gen.cycle 8) () in
  let odd = Labelled.const (Gen.cycle 9) () in
  let v_even = View.extract even ~center:0 ~radius:2 in
  let v_odd = View.extract odd ~center:0 ~radius:2 in
  check bool "views of C8 and C9 isomorphic" true
    (Iso.views_isomorphic ( = ) v_even v_odd)

(* ------------------------------------------------------------------ *)
(* The assignment quotient                                             *)
(* ------------------------------------------------------------------ *)

(* A pure decide that reads identifiers value- and position-
   sensitively, so the quotient has real work to be transparent
   over. *)
let weighed_alg m =
  Algorithm.make ~name:"weighed" ~radius:1 (fun view ->
      let acc = ref (View.center_id view) in
      for u = 0 to View.order view - 1 do
        acc := !acc + ((View.label view u + 1) * View.id view u)
      done;
      !acc mod m = 0)

let gen_labelled =
  QCheck2.Gen.(
    map2
      (fun shape lseed ->
        let k = 3 + (lseed mod 3) in
        let g =
          match shape with
          | 0 -> Gen.cycle k
          | 1 -> Gen.path k
          | 2 -> Gen.star (k - 1)
          | _ -> Gen.complete k
        in
        let st = Random.State.make [| lseed; shape |] in
        Labelled.init g (fun _ -> Random.State.int st 3))
      (int_bound 3) (int_bound 1000))

(* Over both simulator backends: [evaluate_exhaustive], which decides
   the all-accept question on the quotient first, against the plain
   walk over every rank that it falls back to. *)
let prop_quotient_transparent =
  QCheck2.Test.make ~name:"quotient = full range walk" ~count:25 gen_labelled
    (fun lg ->
      let n = Labelled.order lg in
      let bound = n + 1 in
      let total = Locald_runtime.Orbit.perm ~bound ~k:n in
      let transparent alg expected =
        List.for_all
          (fun backend ->
            let rv =
              Decider.evaluate_exhaustive_range ~backend ~bound ~lo:0
                ~hi:total alg ~expected lg
            in
            let walked =
              {
                Decider.instance = "prop";
                n;
                expected;
                assignments = total;
                correct = rv.Decider.rv_correct;
                wrong = rv.Decider.rv_wrong;
                failure =
                  Option.map
                    (fun (_, ids, v) -> (ids, v))
                    rv.Decider.rv_failure;
              }
            in
            Locald_runtime.Shard.digest
              (Decider.evaluate_exhaustive ~backend ~bound alg ~expected
                 ~instance:"prop" lg)
            = Locald_runtime.Shard.digest walked)
          [ Backend.Sync; Backend.Async Async_runner.default_config ]
      in
      (* An id-reading decide with failures (exercises the quotient's
         naive fallback) and an all-accepting one (the pure quotient
         fast path). *)
      transparent (weighed_alg 3) false
      && transparent (Algorithm.make ~name:"yes" ~radius:1 (fun _ -> true)) true)

let quotient_cases = [ QCheck_alcotest.to_alcotest prop_quotient_transparent ]

(* ------------------------------------------------------------------ *)
(* The range evaluator against the LD definition                       *)
(* ------------------------------------------------------------------ *)

(* Four deciders, one per way a decide can read ids. Radius 1 and
   value-reading: a node says no when its id is even and a neighbour
   holds the next id. Rings and paths reject some assignments and
   accept others; a clique rejects them all. *)
let even_then_next =
  Algorithm.make ~name:"even-then-next" ~radius:1 (fun view ->
      let me = View.center_id view in
      not
        (me mod 2 = 0
        && Array.exists
             (fun u -> View.id view u = me + 1)
             (View.neighbours view view.View.center)))

(* Reads ids only through one bulk [View.ids]. *)
let bulk_sum =
  Algorithm.make ~name:"bulk-sum" ~radius:1 (fun view ->
      match View.ids view with
      | Some ids ->
          (Array.fold_left ( + ) 0 ids + ids.(view.View.center)) mod 4 <> 0
      | None -> true)

(* Reads no id: accepts unless the centre has degree above 2 and a
   non-zero label. *)
let no_ids =
  Algorithm.make ~name:"no-ids" ~radius:1 (fun view ->
      let c = view.View.center in
      View.degree view c <= 2 || View.label view c = 0)

(* Adaptive, in a different slot order per node: it starts at the
   view's last slot when the centre's degree is even and at slot 0
   otherwise, and each id it reads names the next slot. *)
let hopping =
  Algorithm.make ~name:"hopping" ~radius:1 (fun view ->
      let k = View.order view in
      let c = view.View.center in
      let rec go s steps acc =
        if steps = 0 then acc
        else
          let x = View.id view s in
          go (x mod k) (steps - 1) (acc + x)
      in
      go (if View.degree view c mod 2 = 0 then k - 1 else 0) 3 0 mod 3 <> 0)

let oracle_deciders = [ even_then_next; bulk_sum; no_ids; hopping ]

(* Counts, then the first failure's rank (when [ranked]), ids and
   verdict, as one string. *)
let show ?(ranked = true) (correct, wrong, failure) =
  Printf.sprintf "%d correct, %d wrong, first %s" correct wrong
    (match failure with
    | None -> "none"
    | Some (rank, ids, verdict) ->
        Format.asprintf "%s[%s] %a"
          (if ranked then string_of_int rank ^ " " else "")
          (String.concat ";" (List.map string_of_int (Array.to_list ids)))
          Verdict.pp verdict)

(* The definition, by brute force: every injective assignment in
   the test tree's own lexicographic order ([Injections.all]), each
   run through the direct
   engine (a fresh extraction per node, no preparation, no memo), a
   run accepting iff every node says yes. *)
let oracle alg lg ~bound ~expected =
  let correct = ref 0 and wrong = ref 0 and first = ref None in
  Seq.iteri
    (fun rank ids ->
      let verdict = Verdict.of_outputs (Runner.run alg lg ~ids) in
      if Verdict.accepts verdict = expected then incr correct
      else begin
        incr wrong;
        if !first = None then first := Some (rank, Ids.to_array ids, verdict)
      end)
    (Seq.map Ids.of_array (Injections.all ~n:(Labelled.order lg) ~bound));
  (!correct, !wrong, !first)

(* [0, total) cut at up to four random points (repeats give empty
   ranges), each piece evaluated on its own through one preparation
   and merged as the shard layer merges: counts add, the first piece
   with a failure has the first failure. *)
let tiled rng prep alg lg ~bound ~expected =
  let total = Locald_runtime.Orbit.perm ~bound ~k:(Labelled.order lg) in
  let cuts =
    List.sort compare (List.init 4 (fun _ -> Random.State.int rng (total + 1)))
  in
  let bounds = (0 :: cuts) @ [ total ] in
  let rec pieces acc = function
    | lo :: (hi :: _ as rest) ->
        let rv =
          Decider.evaluate_exhaustive_range ~prep ~bound ~lo ~hi alg ~expected
            lg
        in
        let c, w, f = acc in
        pieces
          ( c + rv.Decider.rv_correct,
            w + rv.Decider.rv_wrong,
            match f with
            | Some _ -> f
            | None ->
                Option.map
                  (fun (rank, ids, v) -> (rank, Ids.to_array ids, v))
                  rv.Decider.rv_failure )
          rest
    | _ -> acc
  in
  show (pieces (0, 0, None) bounds)

let with_jobs jobs f =
  Locald_runtime.Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Locald_runtime.Pool.set_default_jobs 1) f

let backends =
  [
    Backend.Sync;
    Backend.Async { Async_runner.sched_seed = 5; fifo = false };
  ]

(* The sampled evaluation by brute force: the same [Ids.sample] draws
   [Decider.evaluate] makes from an equal generator, each run through
   the direct engine. Counts, then the first failure's ids and
   verdict. *)
let sampled_oracle alg lg ~seed ~regime ~assignments ~expected =
  let rng = Random.State.make [| seed |] in
  let n = Labelled.order lg in
  let correct = ref 0 and wrong = ref 0 and first = ref None in
  for _ = 1 to assignments do
    let ids = Ids.sample rng regime ~n in
    let verdict = Verdict.of_outputs (Runner.run alg lg ~ids) in
    if Verdict.accepts verdict = expected then incr correct
    else begin
      incr wrong;
      if !first = None then first := Some (0, Ids.to_array ids, verdict)
    end
  done;
  (!correct, !wrong, !first)

(* Id-obliviousness by brute force: every assignment's direct run
   against the first one's; the first differing node of the first
   differing assignment, in enumeration order. *)
let variance_oracle alg lg ~bound =
  let outputs ids = Runner.run alg lg ~ids in
  match
    Seq.map Ids.of_array (Injections.all ~n:(Labelled.order lg) ~bound) ()
  with
  | Seq.Nil -> None
  | Seq.Cons (first, rest) ->
      let reference = outputs first in
      Seq.find_map
        (fun ids ->
          let out = outputs ids in
          Option.map
            (fun node -> { Oblivious.node; ids_a = first; ids_b = ids })
            (Seq.find
               (fun v -> out.(v) <> reference.(v))
               (Seq.init (Array.length out) Fun.id)))
        rest

(* An evaluation's counts and first failure, unranked. *)
let show_evaluation e =
  show ~ranked:false
    ( e.Decider.correct,
      e.Decider.wrong,
      Option.map (fun (ids, v) -> (0, Ids.to_array ids, v)) e.Decider.failure )

let show_witness = function
  | None -> "oblivious"
  | Some w ->
      Format.asprintf "node %d: %a vs %a" w.Oblivious.node Ids.pp
        w.Oblivious.ids_a Ids.pp w.Oblivious.ids_b

(* Every decider on one instance against the oracle, on each backend
   and job count: random tilings of the range evaluator,
   [evaluate_exhaustive] (the quotient, with its fallback), sampled
   [evaluate] over 600 draws (two batches) of identifiers below
   [n + 1], and the exhaustive variance search. *)
let against_oracle rng name lg ~bound ~expected =
  List.iter
    (fun alg ->
      let truth = oracle alg lg ~bound ~expected in
      let seed = Random.State.bits rng in
      let regime = Ids.f_linear_plus 1 and assignments = 600 in
      let sampled_truth =
        sampled_oracle alg lg ~seed ~regime ~assignments ~expected
      in
      let variance_truth = variance_oracle alg lg ~bound in
      List.iter
        (fun backend ->
          let backend_name =
            match backend with
            | Backend.Sync -> "sync"
            | Backend.Async _ -> "async"
          in
          check Alcotest.string
            (Printf.sprintf "variance search = oracle: %s, %s, %s" name
               alg.Algorithm.name backend_name)
            (show_witness variance_truth)
            (show_witness
               (Oblivious.find_variance_exhaustive ~backend ~bound alg lg));
          List.iter
            (fun jobs ->
              let where =
                Printf.sprintf "%s, %s, %s, jobs %d" name alg.Algorithm.name
                  backend_name jobs
              in
              with_jobs jobs (fun () ->
                  let prep = Runner.prepare ~backend alg lg in
                  check Alcotest.string ("tiled ranges = oracle: " ^ where)
                    (show truth)
                    (tiled rng prep alg lg ~bound ~expected);
                  let e =
                    Decider.evaluate_exhaustive ~backend ~bound alg ~expected
                      ~instance:name lg
                  in
                  check Alcotest.string
                    ("evaluate_exhaustive = oracle: " ^ where)
                    (show ~ranked:false truth)
                    (show_evaluation e);
                  let e =
                    Decider.evaluate ~backend
                      ~rng:(Random.State.make [| seed |])
                      ~regime ~assignments alg ~expected ~instance:name lg
                  in
                  check Alcotest.string ("sampled evaluate = oracle: " ^ where)
                    (show ~ranked:false sampled_truth)
                    (show_evaluation e)))
            [ 1; 2 ])
        backends)
    oracle_deciders

let test_range_matches_oracle () =
  let rng = Random.State.make [| 0x0ac1e |] in
  let const g = Labelled.const g 0 in
  let ring = const (Gen.cycle 7) in
  let correct, wrong, _ = oracle even_then_next ring ~bound:8 ~expected:true in
  check bool "the ring has accepted and rejected assignments" true
    (correct > 0 && wrong > 0);
  List.iter
    (fun (name, lg, bound, expected) ->
      against_oracle rng name lg ~bound ~expected)
    [
      (* 40,320 ranks: enough sub-ranges for the pool to fan out. *)
      ("ring 7", ring, 8, true);
      ("path 5", const (Gen.path 5), 6, true);
      ("path 5, expected no", const (Gen.path 5), 5, false);
      ("star", const (Gen.star 4), 5, true);
      ("clique", const (Gen.complete 4), 5, true);
      ("random tree", const (Gen.random_tree rng 6), 6, true);
      ("random graph", const (Gen.random_connected rng ~n:5 ~p:0.5), 6, true);
    ]

(* Small connected [Gen] graphs with labels in {0, 1}, ids bounded by
   the order or one more, either expectation. *)
let prop_gen_graphs_match_oracle =
  QCheck2.Test.make ~name:"Gen graphs = LD definition" ~count:12
    QCheck2.Gen.(
      quad (int_range 2 5) (int_bound 1) bool (int_bound 1_000_000))
    (fun (n, extra, expected, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Gen.random_connected rng ~n ~p:0.4 in
      let lg = Labelled.init g (fun _ -> Random.State.int rng 2) in
      against_oracle rng
        (Printf.sprintf "Gen graph n=%d seed %d" n seed)
        lg ~bound:(n + extra) ~expected;
      true)

let () =
  Alcotest.run "decision"
    [
      ("verdicts", [ Alcotest.test_case "of_outputs" `Quick test_verdict ]);
      ( "properties",
        [
          Alcotest.test_case "stock properties" `Quick test_stock_properties;
          Alcotest.test_case "invariance checking" `Quick test_invariance_checker;
        ] );
      ( "deciders",
        [
          Alcotest.test_case "decide and evaluate" `Quick test_decide_and_evaluate;
          Alcotest.test_case "exhaustive evaluation" `Quick test_evaluate_exhaustive;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "A* recovers obliviousness" `Quick
            test_a_star_recovers_obliviousness;
          Alcotest.test_case "budget streams" `Quick test_budget_streams;
        ] );
      ( "hereditary",
        [
          Alcotest.test_case "positive" `Quick test_hereditary_positive;
          Alcotest.test_case "negative with witness" `Quick test_hereditary_negative;
        ] );
      ("quotient", quotient_cases);
      ( "oracle",
        [
          Alcotest.test_case "range evaluator = LD definition" `Quick
            test_range_matches_oracle;
          QCheck_alcotest.to_alcotest prop_gen_graphs_match_oracle;
        ] );
      ( "nondeterministic",
        [ Alcotest.test_case "beyond LD" `Quick test_nld_beats_ld_here ] );
    ]

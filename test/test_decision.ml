(* Tests for the decision layer: verdicts, properties, deciders, the
   Id-oblivious simulation A*, promise problems, hereditariness, LCL
   specs and the decide-once memo. *)

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

let test_assignments_of_budget () =
  let count budget =
    Seq.fold_left (fun acc _ -> acc + 1) 0 (Simulation.assignments_of_budget budget ~k:2)
  in
  check int "exhaustive 3 ids, 2 nodes" 6 (count (Simulation.Exhaustive 3));
  check int "sampled count" 7
    (count (Simulation.Sampled { bound = 10; trials = 7; seed = 1 }))

(* ------------------------------------------------------------------ *)
(* Promise problems                                                    *)
(* ------------------------------------------------------------------ *)

let test_promise_to_property () =
  let p =
    Promise.make ~name:"even-cycles"
      ~promise:(fun lg -> Graph.is_cycle (Labelled.graph lg))
      ~mem:(fun lg -> Labelled.order lg mod 2 = 0)
  in
  let total = Promise.to_property p in
  check bool "in promise and yes" true (total.Property.mem (Labelled.const (Gen.cycle 6) ()));
  check bool "in promise, no" false (total.Property.mem (Labelled.const (Gen.cycle 5) ()));
  check bool "outside promise" false (total.Property.mem (Labelled.const (Gen.path 6) ()))

(* ------------------------------------------------------------------ *)
(* Hereditariness                                                      *)
(* ------------------------------------------------------------------ *)

let test_hereditary_positive () =
  let rng = rng () in
  let col = Property.proper_colouring ~k:3 in
  check bool "3-colouring is hereditary (no violation found)" true
    (Hereditary.looks_hereditary_on ~rng ~samples:100 col
       [
         Labelled.init (Gen.cycle 9) (fun v -> v mod 3);
         Labelled.init (Gen.grid 3 3) (fun v -> ((v mod 3) + (v / 3)) mod 3);
       ])

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
(* LCL specs                                                           *)
(* ------------------------------------------------------------------ *)

let test_lcl_colouring () =
  let spec = Lcl.proper_colouring ~k:3 in
  let yes = Labelled.init (Gen.cycle 9) (fun v -> v mod 3) in
  let no = Labelled.const (Gen.cycle 9) 1 in
  check bool "property yes" true ((Lcl.property spec).Property.mem yes);
  check bool "property no" false ((Lcl.property spec).Property.mem no);
  check bool "decider decides" true (Lcl.decides spec [ yes; no ])

let test_lcl_mis_and_dominating () =
  let graphs = [ Gen.cycle 7; Gen.grid 3 4; Gen.complete_binary_tree 3 ] in
  List.iter
    (fun g ->
      let lg = Labelled.const g 0 in
      let mis = Labelled.make g (Lcl.greedy_mis lg) in
      check bool "greedy MIS valid" true
        ((Lcl.property Lcl.maximal_independent_set).Property.mem mis);
      (* Every MIS is also a dominating set. *)
      check bool "MIS dominates" true
        ((Lcl.property Lcl.dominating_set).Property.mem mis);
      (* The empty set is neither. *)
      let empty = Labelled.const g 0 in
      check bool "empty not MIS" false
        ((Lcl.property Lcl.maximal_independent_set).Property.mem empty);
      check bool "empty not dominating" false
        ((Lcl.property Lcl.dominating_set).Property.mem empty))
    graphs

let test_lcl_matching () =
  let graphs = [ Gen.cycle 8; Gen.path 7; Gen.grid 3 3 ] in
  List.iter
    (fun g ->
      let lg = Labelled.const g 0 in
      let matching = Labelled.make g (Lcl.greedy_matching lg) in
      check bool "greedy matching valid" true
        ((Lcl.property Lcl.maximal_matching).Property.mem matching);
      (* Unmatching one endpoint breaks the pointer symmetry. *)
      let broken =
        Labelled.mapi
          (fun v x -> if v = 0 then None else x)
          matching
      in
      check bool "broken matching rejected" false
        ((Lcl.property Lcl.maximal_matching).Property.mem broken))
    graphs

let test_lcl_sinkless () =
  (* Orient a cycle consistently: every node points to its successor;
     no node's out-edge is reciprocated. *)
  let g = Gen.cycle 6 in
  let labels =
    Array.init 6 (fun v ->
        let nbrs = Graph.neighbours g v in
        let succ = (v + 1) mod 6 in
        let rec find k = if nbrs.(k) = succ then k else find (k + 1) in
        find 0)
  in
  let lg = Labelled.make g labels in
  check bool "cycle orientation sinkless-valid" true
    ((Lcl.property Lcl.sinkless_orientation).Property.mem lg);
  (* Two nodes pointing at each other violate the progress rule. *)
  let bad =
    Labelled.mapi
      (fun v x ->
        if v = 0 then (
          let nbrs = Graph.neighbours g 0 in
          let rec find k = if nbrs.(k) = 1 then k else find (k + 1) in
          find 0)
        else if v = 1 then (
          let nbrs = Graph.neighbours g 1 in
          let rec find k = if nbrs.(k) = 0 then k else find (k + 1) in
          find 0)
        else x)
      lg
  in
  check bool "2-cycle rejected" false
    ((Lcl.property Lcl.sinkless_orientation).Property.mem bad)

let test_lcl_deciders_are_oblivious () =
  let rng = rng () in
  let spec = Lcl.maximal_independent_set in
  let lg = Labelled.make (Gen.cycle 7) (Lcl.greedy_mis (Labelled.const (Gen.cycle 7) 0)) in
  let lifted = Algorithm.of_oblivious (Lcl.decider spec) in
  check bool "no id variance" true
    (Oblivious.find_variance_sampled ~rng ~trials:30 ~regime:Ids.Unbounded lifted
       lg
    = None)

(* ------------------------------------------------------------------ *)
(* Decide-once memoisation and the assignment quotient                 *)
(* ------------------------------------------------------------------ *)

module Memo = Locald_runtime.Memo

(* A pure decide that reads identifiers value- and position-
   sensitively, so the exact-ids memo and the quotient have real work
   to be transparent over. *)
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

(* Over both simulator backends: every (backend, memo, quotient)
   configuration against the plain synchronous loop. *)
let prop_memo_transparent =
  QCheck2.Test.make ~name:"memoised = unmemoised exhaustive evaluation"
    ~count:25 gen_labelled (fun lg ->
      let bound = Labelled.order lg + 1 in
      let eval alg expected backend memo quotient =
        Locald_runtime.Shard.digest
          (Decider.evaluate_exhaustive ~quotient ~backend ~memo ~bound alg
             ~expected ~instance:"prop" lg)
      in
      let transparent alg expected =
        let reference = eval alg expected Backend.Sync Memo.Off false in
        List.for_all
          (fun backend ->
            List.for_all
              (fun (memo, quotient) ->
                eval alg expected backend memo quotient = reference)
              [
                (Memo.Off, false); (Memo.Off, true); (Memo.Exact_ids, false);
                (Memo.Exact_ids, true);
              ])
          [ Backend.Sync; Backend.Async Async_runner.default_config ]
      in
      (* An id-reading decide with failures (exercises the quotient's
         naive fallback) and an all-accepting one (the pure quotient
         fast path). *)
      transparent (weighed_alg 3) false
      && transparent (Algorithm.make ~name:"yes" ~radius:1 (fun _ -> true)) true)

let quotient_cases = [ QCheck_alcotest.to_alcotest prop_memo_transparent ]

(* ------------------------------------------------------------------ *)
(* The range evaluator against the LD definition                       *)
(* ------------------------------------------------------------------ *)

(* Radius 1 and value-reading: a node says no when its id is even and
   a neighbour holds the next id. Rings and paths reject some
   assignments and accept others; a clique rejects them all. *)
let even_then_next =
  Algorithm.make ~name:"even-then-next" ~radius:1 (fun view ->
      let me = View.center_id view in
      not
        (me mod 2 = 0
        && Array.exists
             (fun u -> View.id view u = me + 1)
             (View.neighbours view view.View.center)))

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
   [Ids.enumerate_injections]'s order, each run through the direct
   engine (a fresh extraction per node, no preparation, no memo), a
   run accepting iff every node says yes. *)
let oracle lg ~bound ~expected =
  let correct = ref 0 and wrong = ref 0 and first = ref None in
  Seq.iteri
    (fun rank ids ->
      let verdict = Verdict.of_outputs (Runner.run even_then_next lg ~ids) in
      if Verdict.accepts verdict = expected then incr correct
      else begin
        incr wrong;
        if !first = None then first := Some (rank, Ids.to_array ids, verdict)
      end)
    (Ids.enumerate_injections ~n:(Labelled.order lg) ~bound);
  (!correct, !wrong, !first)

(* [0, total) cut at up to four random points (repeats give empty
   ranges), each piece evaluated on its own through one preparation
   and merged as the shard layer merges: counts add, the first piece
   with a failure has the first failure. *)
let tiled rng prep lg ~bound ~expected =
  let total = Locald_runtime.Orbit.perm ~bound ~k:(Labelled.order lg) in
  let cuts =
    List.sort compare (List.init 4 (fun _ -> Random.State.int rng (total + 1)))
  in
  let bounds = (0 :: cuts) @ [ total ] in
  let rec pieces acc = function
    | lo :: (hi :: _ as rest) ->
        let rv =
          Decider.evaluate_exhaustive_range ~prep ~bound ~lo ~hi even_then_next
            ~expected lg
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

let test_range_matches_oracle () =
  let rng = Random.State.make [| 0x0ac1e |] in
  let const g = Labelled.const g 0 in
  let cases =
    [
      (* 40,320 ranks: enough sub-ranges for the pool to fan out. *)
      ("ring 7", const (Gen.cycle 7), 8, true);
      ("path 5", const (Gen.path 5), 6, true);
      ("path 5, expected no", const (Gen.path 5), 5, false);
      ("star", const (Gen.star 4), 5, true);
      ("clique", const (Gen.complete 4), 5, true);
      ("random tree", const (Gen.random_tree rng 6), 6, true);
      ("random graph", const (Gen.random_connected rng ~n:5 ~p:0.5), 6, true);
    ]
  in
  List.iter
    (fun (name, lg, bound, expected) ->
      let ((correct, wrong, _) as truth) = oracle lg ~bound ~expected in
      if name = "ring 7" then
        check bool "the ring has accepted and rejected assignments" true
          (correct > 0 && wrong > 0);
      List.iter
        (fun (memo, jobs) ->
          let where =
            Printf.sprintf "%s, memo %s, jobs %d" name
              (Memo.mode_to_string memo) jobs
          in
          with_jobs jobs (fun () ->
              let prep = Runner.prepare ~memo even_then_next lg in
              check Alcotest.string ("tiled ranges = oracle: " ^ where)
                (show truth)
                (tiled rng prep lg ~bound ~expected);
              List.iter
                (fun quotient ->
                  let e =
                    Decider.evaluate_exhaustive ~quotient ~memo ~bound
                      even_then_next ~expected ~instance:name lg
                  in
                  check Alcotest.string
                    (Printf.sprintf
                       "evaluate_exhaustive (quotient %b) = oracle: %s" quotient
                       where)
                    (show ~ranked:false truth)
                    (show ~ranked:false
                       ( e.Decider.correct,
                         e.Decider.wrong,
                         Option.map
                           (fun (ids, v) -> (0, Ids.to_array ids, v))
                           e.Decider.failure )))
                [ true; false ]))
        [
          (Memo.Off, 1);
          (Memo.Exact_ids, 1);
          (Memo.Off, 2);
          (Memo.Exact_ids, 2);
        ])
    cases

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
          Alcotest.test_case "budget streams" `Quick test_assignments_of_budget;
        ] );
      ("promise", [ Alcotest.test_case "to_property" `Quick test_promise_to_property ]);
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
        ] );
      ( "nondeterministic",
        [ Alcotest.test_case "beyond LD" `Quick test_nld_beats_ld_here ] );
      ( "lcl",
        [
          Alcotest.test_case "colouring" `Quick test_lcl_colouring;
          Alcotest.test_case "mis and dominating" `Quick test_lcl_mis_and_dominating;
          Alcotest.test_case "matching" `Quick test_lcl_matching;
          Alcotest.test_case "sinkless orientation" `Quick test_lcl_sinkless;
          Alcotest.test_case "deciders oblivious" `Quick test_lcl_deciders_are_oblivious;
        ] );
    ]

(* Tests for labelled graphs and view extraction. *)

open Locald_graph

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Labelled graphs                                                     *)
(* ------------------------------------------------------------------ *)

let test_labelled_basics () =
  let lg = Labelled.init (Gen.path 4) (fun v -> 10 * v) in
  check int "label" 20 (Labelled.label lg 2);
  check int "order" 4 (Labelled.order lg);
  let doubled = Labelled.map (fun x -> 2 * x) lg in
  check int "map" 40 (Labelled.label doubled 2);
  let raised =
    try ignore (Labelled.make (Gen.path 3) [| 1 |]); false
    with Graph.Invalid_graph _ -> true
  in
  check bool "length mismatch rejected" true raised

let test_labelled_relabel_nodes () =
  let lg = Labelled.init (Gen.path 3) (fun v -> v) in
  let lh = Labelled.relabel_nodes lg [| 2; 0; 1 |] in
  (* Node v moves to perm v and carries its label. *)
  check int "label follows node" 0 (Labelled.label lh 2);
  check int "label follows node (1 -> 0)" 1 (Labelled.label lh 0);
  check bool "edge image" true (Graph.mem_edge (Labelled.graph lh) 2 0)

let test_labelled_relabel_empty () =
  let lg = Labelled.const (Graph.empty 0) 'x' in
  let lh = Labelled.relabel_nodes lg [||] in
  check int "still empty" 0 (Labelled.order lh);
  check bool "equal to the input" true (Labelled.equal Char.equal lg lh)

let test_labelled_induced () =
  let lg = Labelled.init (Gen.cycle 5) (fun v -> v * v) in
  let sub, back = Labelled.induced lg [| 3; 1; 2 |] in
  check (Alcotest.array int) "back" [| 1; 2; 3 |] back;
  check int "labels restricted" 4 (Labelled.label sub 1);
  check int "order" 3 (Labelled.order sub)

(* ------------------------------------------------------------------ *)
(* View extraction                                                     *)
(* ------------------------------------------------------------------ *)

let test_extract_radius_zero () =
  let lg = Labelled.init (Gen.cycle 5) (fun v -> v) in
  let view = View.extract lg ~center:3 ~radius:0 in
  check int "single node" 1 (View.order view);
  check int "label" 3 (View.center_label view)

let test_extract_ball_content () =
  let lg = Labelled.init (Gen.path 7) (fun v -> v) in
  let view = View.extract lg ~center:3 ~radius:2 in
  check int "five nodes in radius-2 ball" 5 (View.order view);
  (* Labels identify original nodes: 1..5. *)
  let labels = List.sort compare (Array.to_list view.View.labels) in
  check (Alcotest.list int) "ball nodes" [ 1; 2; 3; 4; 5 ] labels;
  check int "centre label" 3 (View.center_label view);
  (* The view graph is the induced path. *)
  check bool "view is a path" true (Graph.is_path_graph view.View.graph)

let test_extract_with_ids () =
  let lg = Labelled.const (Gen.path 3) () in
  let view = View.extract ~ids:[| 30; 10; 20 |] lg ~center:1 ~radius:1 in
  check int "centre id" 10 (View.center_id view);
  let stripped = View.strip_ids view in
  let raised =
    try ignore (View.center_id stripped); false with View.No_ids _ -> true
  in
  check bool "stripped view has no ids" true raised;
  (* Through an engine the exception names the offending algorithm: a
     supposedly oblivious decide that sneaks an id read raises as soon
     as the engine hands it a stripped view. *)
  let open Locald_local in
  let ob =
    Algorithm.make_oblivious ~name:"wants-ids" ~radius:1 (fun view ->
        View.center_id view >= 0)
  in
  List.iter
    (fun (engine, run) ->
      match run () with
      | () -> Alcotest.failf "%s: expected View.No_ids from an id-free view" engine
      | exception View.No_ids msg ->
          check bool
            (engine ^ ": message names the algorithm")
            true
            (String.length msg >= 9 && String.sub msg 0 9 = "wants-ids"))
    [
      ( "Runner.run",
        fun () ->
          ignore
            (Runner.run (Algorithm.of_oblivious ob) lg ~ids:(Ids.sequential 3)) );
      ( "Runner.run ~backend:Async",
        fun () ->
          ignore
            (Runner.run
               ~backend:(Backend.Async Async_runner.default_config)
               (Algorithm.of_oblivious ob) lg ~ids:(Ids.sequential 3)) );
      ( "Runner.run_prepared",
        fun () ->
          ignore
            (Runner.run_prepared
               (Runner.prepare (Algorithm.of_oblivious ob) lg)
               ~ids:(Ids.sequential 3)) );
      ("Runner.run_oblivious", fun () -> ignore (Runner.run_oblivious ob lg));
      ( "Decider.decide_oblivious",
        fun () -> ignore (Locald_decision.Decider.decide_oblivious ob lg) );
    ]

let test_extract_rejects_duplicate_ids_in_ball () =
  let lg = Labelled.const (Gen.path 3) () in
  let raised =
    try ignore (View.extract ~ids:[| 1; 1; 2 |] lg ~center:0 ~radius:1); false
    with Graph.Invalid_graph _ -> true
  in
  check bool "duplicate ids rejected" true raised

let test_reassign_ids () =
  let lg = Labelled.const (Gen.path 3) () in
  let view = View.extract ~ids:[| 0; 1; 2 |] lg ~center:0 ~radius:2 in
  let view' = View.reassign_ids view [| 7; 8; 9 |] in
  check int "new centre id" 7 (View.center_id view');
  let raised =
    try ignore (View.reassign_ids view [| 7; 7; 9 |]); false
    with Graph.Invalid_graph _ -> true
  in
  check bool "non-injective reassignment rejected" true raised

let test_dist_from_center () =
  let lg = Labelled.const (Gen.cycle 8) () in
  let view = View.extract lg ~center:0 ~radius:3 in
  let d = View.dist_from_center view in
  check int "max distance = radius" 3 (Array.fold_left max 0 d);
  check int "centre at distance 0" 0 d.(view.View.center)

let test_labelled_disjoint_union () =
  let a = Labelled.init (Gen.path 2) (fun v -> v) in
  let b = Labelled.init (Gen.cycle 3) (fun v -> 10 + v) in
  let u = Labelled.disjoint_union a b in
  check int "order" 5 (Labelled.order u);
  check int "left labels kept" 1 (Labelled.label u 1);
  check int "right labels shifted in place" 12 (Labelled.label u 4);
  check bool "no cross edges" false (Graph.mem_edge (Labelled.graph u) 1 2)

let test_view_map_labels () =
  let lg = Labelled.init (Gen.path 3) (fun v -> v) in
  let view = View.extract lg ~center:1 ~radius:1 in
  let doubled = View.map_labels (fun x -> 2 * x) view in
  check int "mapped centre" 2 (View.center_label doubled);
  check int "same order" (View.order view) (View.order doubled)

let test_of_parts_validates () =
  let lg = Labelled.const (Gen.path 5) () in
  let raised =
    try ignore (View.of_parts ~center:0 ~radius:1 lg); false
    with Graph.Invalid_graph _ -> true
  in
  check bool "nodes beyond radius rejected" true raised;
  let ok = View.of_parts ~center:2 ~radius:2 lg in
  check int "valid parts accepted" 5 (View.order ok)

(* ------------------------------------------------------------------ *)
(* qcheck: extraction agrees with a spec                               *)
(* ------------------------------------------------------------------ *)

let arbitrary_case =
  QCheck2.Gen.(
    let* n = int_range 2 20 in
    let* seed = int_bound 1_000_000 in
    let* radius = int_range 0 3 in
    let rng = Random.State.make [| seed |] in
    let g = Gen.random_connected rng ~n ~p:0.2 in
    let center = Random.State.int rng n in
    return (Labelled.init g (fun v -> v), center, radius))

let prop_view_order_is_ball_size =
  QCheck2.Test.make ~name:"view order = |B(v,t)|" ~count:80 arbitrary_case
    (fun (lg, center, radius) ->
      View.order (View.extract lg ~center ~radius)
      = Array.length (Graph.ball (Labelled.graph lg) center radius))

let prop_view_edges_are_induced =
  QCheck2.Test.make ~name:"view edges = induced edges" ~count:80 arbitrary_case
    (fun (lg, center, radius) ->
      let view = View.extract lg ~center ~radius in
      let g = Labelled.graph lg in
      (* Labels recover original indices. *)
      let orig = view.View.labels in
      let ok = ref true in
      for i = 0 to View.order view - 1 do
        for j = i + 1 to View.order view - 1 do
          if
            Graph.mem_edge view.View.graph i j
            <> Graph.mem_edge g orig.(i) orig.(j)
          then ok := false
        done
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_view_order_is_ball_size; prop_view_edges_are_induced ]

(* With no monitor installed the instrumented accessors report
   nothing, so they must allocate nothing: every uncached decide reads
   its view through them. 75,000 calls of each on a radius-2 view of
   an 8-cycle. *)
let test_unmonitored_accessors_allocate_nothing () =
  let lg = Labelled.init (Gen.cycle 8) (fun v -> v mod 3) in
  let view =
    View.extract ~ids:(Array.init 8 (fun v -> 10 + v)) lg ~center:0 ~radius:2
  in
  let k = View.order view and sink = ref 0 in
  let calls = 75_000 in
  let before = Gc.minor_words () in
  for i = 1 to calls do
    let u = i mod k in
    sink := !sink + View.label view u + View.id view u + View.degree view u
  done;
  let per_call = (Gc.minor_words () -. before) /. float_of_int (3 * calls) in
  check bool "the loop ran" true (!sink > 0);
  if per_call >= 0.1 then
    Alcotest.failf "%.2f minor words per accessor call" per_call

let () =
  Alcotest.run "views"
    [
      ( "labelled",
        [
          Alcotest.test_case "basics" `Quick test_labelled_basics;
          Alcotest.test_case "relabel nodes" `Quick test_labelled_relabel_nodes;
          Alcotest.test_case "relabel the empty graph" `Quick
            test_labelled_relabel_empty;
          Alcotest.test_case "induced" `Quick test_labelled_induced;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "radius zero" `Quick test_extract_radius_zero;
          Alcotest.test_case "ball content" `Quick test_extract_ball_content;
          Alcotest.test_case "with ids" `Quick test_extract_with_ids;
          Alcotest.test_case "duplicate ids in ball" `Quick
            test_extract_rejects_duplicate_ids_in_ball;
          Alcotest.test_case "reassign ids" `Quick test_reassign_ids;
          Alcotest.test_case "distances from centre" `Quick test_dist_from_center;
          Alcotest.test_case "of_parts validation" `Quick test_of_parts_validates;
          Alcotest.test_case "labelled disjoint union" `Quick
            test_labelled_disjoint_union;
          Alcotest.test_case "view map_labels" `Quick test_view_map_labels;
          Alcotest.test_case "unmonitored accessors allocate nothing" `Quick
            test_unmonitored_accessors_allocate_nothing;
        ] );
      ("properties", qcheck_cases);
    ]

(* Unit and property tests for the graph substrate. *)

open Locald_graph

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A deterministic rng for generator tests. *)
let rng () = Random.State.make [| 0xbeef |]

(* ------------------------------------------------------------------ *)
(* Construction and accessors                                          *)
(* ------------------------------------------------------------------ *)

let test_of_edges_basic () =
  let g = Graph.of_edges ~n:4 [ (0, 1); (1, 2); (2, 3); (1, 0) ] in
  check int "order" 4 (Graph.order g);
  check int "size (duplicate edge merged)" 3 (Graph.size g);
  check bool "mem 0-1" true (Graph.mem_edge g 0 1);
  check bool "mem 1-0 (symmetric)" true (Graph.mem_edge g 1 0);
  check bool "no 0-2" false (Graph.mem_edge g 0 2);
  check int "degree 1" 2 (Graph.degree g 1);
  check int "port 1 of vertex 1" 2 (Graph.neighbour g 1 1);
  Alcotest.check_raises "port out of range"
    (Graph.Invalid_graph "port 2 out of range [0,2) at vertex 1")
    (fun () -> ignore (Graph.neighbour g 1 2))

let test_of_edges_rejects_self_loop () =
  Alcotest.check_raises "self-loop" (Graph.Invalid_graph "self-loop at vertex 2")
    (fun () -> ignore (Graph.of_edges ~n:3 [ (2, 2) ]))

let test_of_edges_rejects_out_of_range () =
  let raised =
    try
      ignore (Graph.of_edges ~n:3 [ (0, 5) ]);
      false
    with Graph.Invalid_graph _ -> true
  in
  check bool "out of range rejected" true raised

let test_of_adjacency_symmetrises () =
  (* A one-sided adjacency list is symmetrised on input. *)
  let g = Graph.of_adjacency [| [| 1 |]; [||]; [| 1 |] |] in
  check bool "0-1" true (Graph.mem_edge g 0 1);
  check bool "1-2" true (Graph.mem_edge g 1 2);
  check int "m" 2 (Graph.size g)

let test_empty () =
  let g = Graph.empty 5 in
  check int "order" 5 (Graph.order g);
  check int "size" 0 (Graph.size g);
  check bool "connected (no)" false (Graph.is_connected g);
  check bool "empty graph on 0 is connected" true (Graph.is_connected (Graph.empty 0))

let test_edges_sorted () =
  let g = Graph.of_edges ~n:4 [ (3, 2); (1, 0); (2, 0) ] in
  check (Alcotest.list (Alcotest.pair int int)) "edges normalised"
    [ (0, 1); (0, 2); (2, 3) ] (Graph.edges g)

(* ------------------------------------------------------------------ *)
(* Distances and balls                                                 *)
(* ------------------------------------------------------------------ *)

let test_bfs_on_path () =
  let g = Gen.path 5 in
  let d = Graph.bfs_distances g 0 in
  check (Alcotest.array int) "distances" [| 0; 1; 2; 3; 4 |] d;
  check int "dist" 3 (Graph.dist g 1 4);
  check int "eccentricity of middle" 2 (Graph.eccentricity g 2);
  check int "diameter" 4 (Graph.diameter g)

let test_ball_matches_bfs () =
  (* On every generated graph, [ball g v t] = vertices at bfs distance
     <= t. *)
  let cases =
    [ Gen.cycle 9; Gen.grid 4 5; Gen.complete_binary_tree 3; Gen.star 7 ]
  in
  List.iter
    (fun g ->
      let n = Graph.order g in
      for v = 0 to n - 1 do
        for t = 0 to 3 do
          let d = Graph.bfs_distances g v in
          let expected =
            List.filter (fun u -> d.(u) <= t) (Graph.vertices g)
          in
          check (Alcotest.list int)
            (Printf.sprintf "ball v=%d t=%d" v t)
            expected
            (Array.to_list (Graph.ball g v t))
        done
      done)
    cases

let test_ball_rejects_negative_radius () =
  Alcotest.check_raises "negative radius"
    (Graph.Invalid_graph "view: negative radius -1")
    (fun () -> ignore (Graph.ball (Gen.path 3) 1 (-1)))

let test_disconnected_distances () =
  let g = Graph.of_edges ~n:4 [ (0, 1) ] in
  check int "unreachable" max_int (Graph.dist g 0 3);
  check int "components" 3 (List.length (Graph.components g));
  let raised = try ignore (Graph.diameter g); false with Graph.Invalid_graph _ -> true in
  check bool "diameter raises when disconnected" true raised

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let test_induced () =
  let g = Gen.cycle 6 in
  let h, back = Graph.induced g [| 5; 0; 1 |] in
  check (Alcotest.array int) "back map sorted" [| 0; 1; 5 |] back;
  check int "order" 3 (Graph.order h);
  (* Edges 0-1 and 0-5 survive; 1-5 is not an edge of the cycle. *)
  check int "size" 2 (Graph.size h);
  check bool "0-1 present" true (Graph.mem_edge h 0 1)

let test_induced_rejects_duplicates () =
  let g = Gen.cycle 4 in
  let raised =
    try ignore (Graph.induced g [| 0; 0 |]); false
    with Graph.Invalid_graph _ -> true
  in
  check bool "duplicates rejected" true raised

let test_disjoint_union () =
  let g = Graph.disjoint_union (Gen.path 2) (Gen.cycle 3) in
  check int "order" 5 (Graph.order g);
  check int "size" 4 (Graph.size g);
  check bool "shifted edge" true (Graph.mem_edge g 2 3);
  check bool "no cross edge" false (Graph.mem_edge g 1 2)

let test_relabel_preserves_structure () =
  let g = Gen.grid 3 3 in
  let perm = [| 4; 2; 7; 0; 8; 1; 3; 6; 5 |] in
  let h = Graph.relabel g perm in
  check int "size preserved" (Graph.size g) (Graph.size h);
  List.iter
    (fun (u, v) ->
      check bool "edge image present" true (Graph.mem_edge h perm.(u) perm.(v)))
    (Graph.edges g)

let test_add_vertices_edges () =
  let g = Graph.add_vertices (Gen.path 3) 2 in
  check int "order" 5 (Graph.order g);
  let g = Graph.add_edges g [ (3, 4); (2, 3) ] in
  check bool "new edge" true (Graph.mem_edge g 3 4);
  check int "size" 4 (Graph.size g)

(* ------------------------------------------------------------------ *)
(* Predicates and generators                                           *)
(* ------------------------------------------------------------------ *)

let test_shape_predicates () =
  check bool "cycle is cycle" true (Graph.is_cycle (Gen.cycle 5));
  check bool "path is not cycle" false (Graph.is_cycle (Gen.path 5));
  check bool "path is path" true (Graph.is_path_graph (Gen.path 5));
  check bool "cycle is not path" false (Graph.is_path_graph (Gen.cycle 5));
  check bool "matching is 1-regular" true (Graph.is_regular (Gen.matching 3) 1);
  check bool "cycle is 2-regular" true (Graph.is_regular (Gen.cycle 7) 2)

let test_generators_shapes () =
  check int "complete size" 10 (Graph.size (Gen.complete 5));
  let t = Gen.complete_binary_tree 3 in
  check int "tree order" 15 (Graph.order t);
  check int "tree size" 14 (Graph.size t);
  check bool "tree connected" true (Graph.is_connected t);
  let g = Gen.grid 4 3 in
  check int "grid order" 12 (Graph.order g);
  check int "grid size" ((3 * 3) + (4 * 2)) (Graph.size g);
  let torus = Gen.torus 4 4 in
  check bool "torus 4-regular" true (Graph.is_regular torus 4);
  check int "star size" 6 (Graph.size (Gen.star 7))

let test_dot_export () =
  let g = Gen.path 3 in
  let dot = Dot.of_graph g in
  check bool "mentions nodes" true
    (String.length dot > 0
    && String.index_opt dot '{' <> None
    && String.index_opt dot '}' <> None);
  let lg = Labelled.init g (fun v -> v) in
  let dot = Dot.of_labelled ~pp_label:Format.pp_print_int lg in
  check bool "labelled export non-empty" true (String.length dot > 20);
  let view = View.extract ~ids:[| 5; 6; 7 |] lg ~center:1 ~radius:1 in
  let dot = Dot.of_view ~pp_label:Format.pp_print_int view in
  check bool "view export highlights the centre" true
    (let rec contains i =
       i + 12 <= String.length dot
       && (String.sub dot i 12 = "doublecircle" || contains (i + 1))
     in
     contains 0)

let test_random_generators () =
  let rng = rng () in
  let t = Gen.random_tree rng 20 in
  check int "tree edges" 19 (Graph.size t);
  check bool "tree connected" true (Graph.is_connected t);
  let g = Gen.random_connected rng ~n:15 ~p:0.05 in
  check bool "random connected" true (Graph.is_connected g);
  let dense = Gen.random_graph rng ~n:10 ~p:1.0 in
  check int "p=1 gives complete" 45 (Graph.size dense)

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arbitrary_graph =
  QCheck2.Gen.(
    let* n = int_range 1 24 in
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed |] in
    return (Gen.random_connected rng ~n ~p:0.15))

let prop_ball_monotone =
  QCheck2.Test.make ~name:"balls grow with the radius" ~count:60 arbitrary_graph
    (fun g ->
      let v = 0 in
      let rec go t prev =
        if t > 4 then true
        else
          let b = Array.to_list (Graph.ball g v t) in
          List.for_all (fun u -> List.mem u b) prev && go (t + 1) b
      in
      go 0 [])

let prop_degree_sum =
  QCheck2.Test.make ~name:"sum of degrees = 2m" ~count:60 arbitrary_graph
    (fun g ->
      let sum = Graph.fold_vertices (fun v acc -> acc + Graph.degree g v) g 0 in
      sum = 2 * Graph.size g)

let prop_relabel_involution =
  QCheck2.Test.make ~name:"relabel by a permutation and back is identity"
    ~count:60 arbitrary_graph (fun g ->
      let n = Graph.order g in
      let rng = Random.State.make [| Graph.size g; n |] in
      let perm = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let inverse = Array.make n 0 in
      Array.iteri (fun i x -> inverse.(x) <- i) perm;
      Graph.equal g (Graph.relabel (Graph.relabel g perm) inverse))

let prop_induced_sub_adjacency =
  QCheck2.Test.make ~name:"induced subgraph preserves adjacency" ~count:60
    arbitrary_graph (fun g ->
      let n = Graph.order g in
      let k = max 1 (n / 2) in
      let subset = Array.init k (fun i -> i * (n / k)) in
      let subset = Array.of_list (List.sort_uniq compare (Array.to_list subset)) in
      let h, back = Graph.induced g subset in
      let ok = ref true in
      for i = 0 to Graph.order h - 1 do
        for j = 0 to Graph.order h - 1 do
          if i <> j && Graph.mem_edge h i j <> Graph.mem_edge g back.(i) back.(j)
          then ok := false
        done
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_ball_monotone; prop_degree_sum; prop_relabel_involution;
      prop_induced_sub_adjacency ]

let () =
  Alcotest.run "graph"
    [
      ( "construction",
        [
          Alcotest.test_case "of_edges basics" `Quick test_of_edges_basic;
          Alcotest.test_case "self-loop rejected" `Quick test_of_edges_rejects_self_loop;
          Alcotest.test_case "out-of-range rejected" `Quick test_of_edges_rejects_out_of_range;
          Alcotest.test_case "of_adjacency symmetrises" `Quick test_of_adjacency_symmetrises;
          Alcotest.test_case "empty graphs" `Quick test_empty;
          Alcotest.test_case "edges normalised" `Quick test_edges_sorted;
        ] );
      ( "distances",
        [
          Alcotest.test_case "bfs on a path" `Quick test_bfs_on_path;
          Alcotest.test_case "ball = bfs restriction" `Quick test_ball_matches_bfs;
          Alcotest.test_case "ball rejects a negative radius" `Quick
            test_ball_rejects_negative_radius;
          Alcotest.test_case "disconnected graphs" `Quick test_disconnected_distances;
        ] );
      ( "transformations",
        [
          Alcotest.test_case "induced subgraph" `Quick test_induced;
          Alcotest.test_case "induced rejects duplicates" `Quick test_induced_rejects_duplicates;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "relabel preserves structure" `Quick test_relabel_preserves_structure;
          Alcotest.test_case "add vertices and edges" `Quick test_add_vertices_edges;
        ] );
      ( "predicates and generators",
        [
          Alcotest.test_case "shape predicates" `Quick test_shape_predicates;
          Alcotest.test_case "generator shapes" `Quick test_generators_shapes;
          Alcotest.test_case "random generators" `Quick test_random_generators;
          Alcotest.test_case "dot export" `Quick test_dot_export;
        ] );
      ("properties", qcheck_cases);
    ]

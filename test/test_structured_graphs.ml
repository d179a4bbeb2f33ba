(* Tests for the structured graphs of the constructions: grid
   orientation, layered trees (Figure 1) and pyramids (Figure 3). *)

open Locald_graph

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* ------------------------------------------------------------------ *)
(* Grid orientation: the mod-6 rule of the pyramid and the table       *)
(* ------------------------------------------------------------------ *)

let m6_of ~w v = (v mod w mod 6, v / w mod 6)

(* Node [v] is oriented when every neighbour lies in a direction, and
   no two in the same one. *)
let oriented g m6 v =
  let dirs =
    Graph.fold_neighbours
      (fun u acc -> Quadtree.dir6_between (m6 v) (m6 u) :: acc)
      g v []
  in
  List.for_all Option.is_some dirs
  && List.length (List.sort_uniq compare dirs) = List.length dirs

let test_grid_locally_oriented () =
  let w = 7 and h = 4 in
  let g = Gen.grid w h in
  let m6 = m6_of ~w in
  for v = 0 to Graph.order g - 1 do
    check bool "oriented" true (oriented g m6 v)
  done;
  (* Directions agree with coordinates, across the wrap from x = 5 to
     x = 6 too. *)
  check bool "right across the wrap" true
    (Quadtree.dir6_between (m6 5) (m6 6) = Some Quadtree.Right);
  check bool "up" true
    (Quadtree.dir6_between (m6 (w + 2)) (m6 2) = Some Quadtree.Up)

let test_grid_orientation_catches_corruption () =
  (* Copy a neighbour's label: some node sees two neighbours in one
     direction or an unclassifiable neighbour. *)
  let w = 7 and h = 4 in
  let g = Gen.grid w h in
  let corrupted v = if v = 7 then m6_of ~w 8 else m6_of ~w v in
  let all_ok = ref true in
  for v = 0 to Graph.order g - 1 do
    if not (oriented g corrupted v) then all_ok := false
  done;
  check bool "corruption detected" false !all_ok

(* ------------------------------------------------------------------ *)
(* Layered trees                                                       *)
(* ------------------------------------------------------------------ *)

let test_layered_tree_shape () =
  let lt = Layered_tree.make ~arity:2 ~r:0 ~depth:3 in
  let g = Labelled.graph lt in
  check int "order" 15 (Graph.order g);
  (* Edges: 14 tree edges + level paths of lengths 1, 3, 7. *)
  check int "size" (14 + 1 + 3 + 7) (Graph.size g);
  (* Root's label and neighbours. *)
  check bool "root label" true (Labelled.label lt 0 = { Layered_tree.r = 0; x = 0; y = 0 });
  check int "root degree (two children)" 2 (Graph.degree g 0);
  (* A middle node of level 2 has: parent, 2 children, 2 level
     neighbours. *)
  let v = Layered_tree.node_index ~arity:2 ~x:1 ~y:2 in
  check int "middle degree" 5 (Graph.degree g v)

let test_layered_tree_arity_one_is_path () =
  let lt = Layered_tree.make ~arity:1 ~r:0 ~depth:6 in
  check bool "arity 1 = path" true (Graph.is_path_graph (Labelled.graph lt))

let test_layered_tree_inspect_genuine () =
  let depth = 4 in
  let lt = Layered_tree.make ~arity:2 ~r:0 ~depth in
  let label_of v = Some (Labelled.label lt v) in
  for v = 0 to Labelled.order lt - 1 do
    match Layered_tree.inspect ~arity:2 ~depth ~label_of (Labelled.graph lt) v with
    | None -> Alcotest.fail "node lost its label"
    | Some c ->
        check bool
          (Printf.sprintf "node %d interior-ok" v)
          true
          (Layered_tree.is_interior_ok c)
  done

let test_layered_tree_inspect_detects_missing_edge () =
  let depth = 3 in
  let lt = Layered_tree.make ~arity:2 ~r:0 ~depth in
  let g = Labelled.graph lt in
  (* Remove one level-path edge. *)
  let e = (Layered_tree.node_index ~arity:2 ~x:0 ~y:2, Layered_tree.node_index ~arity:2 ~x:1 ~y:2) in
  let edges = List.filter (fun (u, v) -> (u, v) <> e) (Graph.edges g) in
  let g' = Graph.of_edges ~n:(Graph.order g) edges in
  let label_of v = Some (Labelled.label lt v) in
  let some_bad = ref false in
  for v = 0 to Graph.order g' - 1 do
    match Layered_tree.inspect ~arity:2 ~depth ~label_of g' v with
    | None -> ()
    | Some c -> if not (Layered_tree.is_interior_ok c) then some_bad := true
  done;
  check bool "missing edge detected" true !some_bad

let test_cone_and_border () =
  let arity = 2 and depth = 4 and r = 2 in
  let apex = (1, 1) in
  let cone = Layered_tree.cone ~arity ~apex ~r in
  (* |cone| = 1 + 2 + 4. *)
  check int "cone size" 7 (Array.length cone);
  let border = Layered_tree.cone_border ~arity ~depth ~apex ~r in
  (* Everything except fully-interior nodes is on the border here. *)
  check bool "border non-empty" true (Array.length border > 0);
  check bool "border inside cone" true
    (Array.for_all (fun b -> Array.exists (fun c -> c = b) cone) border);
  (* The apex has a parent outside: it is a border node. *)
  let apex_index = Layered_tree.node_index ~arity ~x:1 ~y:1 in
  check bool "apex is border" true (Array.exists (fun b -> b = apex_index) border)

let test_top_cone_border () =
  (* The cone at the root: only the bottom row has outside
     neighbours. *)
  let arity = 2 and depth = 4 and r = 2 in
  let border = Layered_tree.cone_border ~arity ~depth ~apex:(0, 0) ~r in
  let bottom_row = Layered_tree.level_width ~arity r in
  check int "border = bottom row" bottom_row (Array.length border)

let test_apexes_count () =
  (* Apex count = sum of level widths for y0 <= depth - r. *)
  let apexes = Layered_tree.apexes ~arity:2 ~depth:4 ~r:2 in
  check int "apexes" (1 + 2 + 4) (List.length apexes)

(* ------------------------------------------------------------------ *)
(* Quadtrees (pyramids)                                                *)
(* ------------------------------------------------------------------ *)

let test_quadtree_shape () =
  let h = 3 in
  let g = Quadtree.build ~h in
  check int "order" (64 + 16 + 4 + 1) (Graph.order g);
  (* Apex is the last node; degree 4 (its children), no siblings. *)
  let apex = Graph.order g - 1 in
  check int "apex degree" 4 (Graph.degree g apex);
  (* Base corner: 2 grid nbrs + 1 parent. *)
  check int "corner degree" 3 (Graph.degree g 0);
  (* coord round trip. *)
  for i = 0 to Graph.order g - 1 do
    check int "index round-trip" i (Quadtree.index ~h (Quadtree.coord_of_index ~h i))
  done

(* Base-grid nodes classify as [Bottom]; upper levels as [Upper]. *)
let classify_by_coord ~h v =
  let c = Quadtree.coord_of_index ~h v in
  let l = Quadtree.label_of_coord c in
  if c.Quadtree.z = 0 then Quadtree.Bottom (l.Quadtree.m6x, l.Quadtree.m6y)
  else Quadtree.Upper l

let test_quadtree_inspect_genuine () =
  List.iter
    (fun h ->
      let lg = Quadtree.labelled ~h () in
      let g = Labelled.graph lg in
      let classify = classify_by_coord ~h in
      for v = 0 to Graph.order g - 1 do
        let errs = Quadtree.inspect ~classify g v in
        if errs <> [] then
          Alcotest.failf "h=%d node %d: %s" h v (String.concat "; " errs)
      done)
    [ 1; 2; 3; 4 ]

let test_quadtree_rejects_torus () =
  let h = 2 in
  let side = Quadtree.side ~h in
  let torus = Locald_graph.Gen.torus side side in
  let labels =
    Array.init (side * side) (fun v ->
        Quadtree.label_of_coord { Quadtree.x = v mod side; y = v / side; z = 0 })
  in
  let classify v = Quadtree.Bottom (labels.(v).Quadtree.m6x, labels.(v).Quadtree.m6y) in
  let some_bad = ref false in
  for v = 0 to (side * side) - 1 do
    if Quadtree.inspect ~classify torus v <> [] then some_bad := true
  done;
  check bool "torus rejected" true !some_bad

let test_quadtree_rejects_missing_level () =
  (* Drop the apex: its children keep grid neighbours but lose their
     parent. *)
  let h = 2 in
  let g = Quadtree.build ~h in
  let n = Graph.order g in
  let keep = Array.init (n - 1) Fun.id in
  let g', _ = Graph.induced g keep in
  let classify = classify_by_coord ~h in
  let some_bad = ref false in
  for v = 0 to Graph.order g' - 1 do
    if Quadtree.inspect ~classify g' v <> [] then some_bad := true
  done;
  check bool "truncated pyramid rejected" true !some_bad

let test_quadtree_parent_of () =
  let h = 2 in
  let lg = Quadtree.labelled ~h () in
  let g = Labelled.graph lg in
  let classify v = Quadtree.Upper (Labelled.label lg v) in
  let base = Quadtree.index ~h { Quadtree.x = 3; y = 2; z = 0 } in
  let expected = Quadtree.index ~h { Quadtree.x = 1; y = 1; z = 1 } in
  check (Alcotest.option int) "parent" (Some expected)
    (Quadtree.parent_of ~classify g base)

let () =
  Alcotest.run "structured-graphs"
    [
      ( "grid",
        [
          Alcotest.test_case "genuine grid oriented" `Quick test_grid_locally_oriented;
          Alcotest.test_case "corruption caught" `Quick
            test_grid_orientation_catches_corruption;
        ] );
      ( "layered-tree",
        [
          Alcotest.test_case "shape" `Quick test_layered_tree_shape;
          Alcotest.test_case "arity 1 degenerates to a path" `Quick
            test_layered_tree_arity_one_is_path;
          Alcotest.test_case "inspect accepts genuine" `Quick
            test_layered_tree_inspect_genuine;
          Alcotest.test_case "inspect detects corruption" `Quick
            test_layered_tree_inspect_detects_missing_edge;
          Alcotest.test_case "cones and borders" `Quick test_cone_and_border;
          Alcotest.test_case "top cone border" `Quick test_top_cone_border;
          Alcotest.test_case "apex enumeration" `Quick test_apexes_count;
        ] );
      ( "quadtree",
        [
          Alcotest.test_case "shape" `Quick test_quadtree_shape;
          Alcotest.test_case "inspect accepts genuine" `Quick
            test_quadtree_inspect_genuine;
          Alcotest.test_case "rejects torus" `Quick test_quadtree_rejects_torus;
          Alcotest.test_case "rejects truncation" `Quick
            test_quadtree_rejects_missing_level;
          Alcotest.test_case "parent lookup" `Quick test_quadtree_parent_of;
        ] );
    ]

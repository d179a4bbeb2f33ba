open Locald_graph

type 'a t = {
  nodes : (int, 'a) Hashtbl.t;
  edges : (int * int, unit) Hashtbl.t;
}

let create () = { nodes = Hashtbl.create 16; edges = Hashtbl.create 16 }

let copy k = { nodes = Hashtbl.copy k.nodes; edges = Hashtbl.copy k.edges }

let edge_key a b = if a < b then (a, b) else (b, a)

let add_node k id label = Hashtbl.replace k.nodes id label

let add_edge k a b = Hashtbl.replace k.edges (edge_key a b) ()

let mem_node k id = Hashtbl.mem k.nodes id

let mem_edge k a b = Hashtbl.mem k.edges (edge_key a b)

let node_count k = Hashtbl.length k.nodes

let edge_count k = Hashtbl.length k.edges

let items k = node_count k + edge_count k

let merge ~into src =
  let fresh = ref 0 in
  Hashtbl.iter
    (fun id label ->
      if not (Hashtbl.mem into.nodes id) then incr fresh;
      Hashtbl.replace into.nodes id label)
    src.nodes;
  Hashtbl.iter
    (fun e () ->
      if not (Hashtbl.mem into.edges e) then incr fresh;
      Hashtbl.replace into.edges e ())
    src.edges;
  !fresh

let reconstruct k ~center_id ~radius =
  (* Rebuild the known graph, indexing known ids canonically. *)
  let known_ids =
    Hashtbl.fold (fun i _ acc -> i :: acc) k.nodes []
    |> List.sort compare |> Array.of_list
  in
  let index_of = Hashtbl.create (2 * Array.length known_ids) in
  Array.iteri (fun i x -> Hashtbl.replace index_of x i) known_ids;
  let edges =
    Hashtbl.fold
      (fun (a, b) () acc ->
        (Hashtbl.find index_of a, Hashtbl.find index_of b) :: acc)
      k.edges []
  in
  let known_graph = Graph.of_edges ~n:(Array.length known_ids) edges in
  let labels = Array.map (fun i -> Hashtbl.find k.nodes i) known_ids in
  let known_lg = Labelled.make known_graph labels in
  let center = Hashtbl.find index_of center_id in
  View.extract ~ids:known_ids known_lg ~center ~radius

let contains_ball k lg ~ids ~center ~radius =
  let g = Labelled.graph lg in
  let ball = Graph.ball g center radius in
  let in_ball = Array.make (Graph.order g) false in
  Array.iter (fun v -> in_ball.(v) <- true) ball;
  Array.for_all
    (fun u ->
      mem_node k ids.(u)
      && Graph.for_all_neighbours
           (fun w -> (not in_ball.(w)) || mem_edge k ids.(u) ids.(w))
           g u)
    ball

open Locald_graph

(* Replace the ids of a view by their ranks 0 .. k-1. *)
let normalise_ranks (view : 'a View.t) =
  match View.ids view with
  | None -> view
  | Some ids ->
      let sorted = Array.copy ids in
      Array.sort compare sorted;
      let rank_of = Hashtbl.create (2 * Array.length ids) in
      Array.iteri (fun r id -> Hashtbl.replace rank_of id r) sorted;
      View.reassign_ids view (Array.map (fun id -> Hashtbl.find rank_of id) ids)

let order_invariant ~name ~radius decide =
  Algorithm.make ~name ~radius (fun view -> decide (normalise_ranks view))

(* A random strictly monotone re-embedding of an assignment: compose
   with a sorted set of fresh values. *)
let monotone_reembedding rng ids =
  let a = Ids.to_array ids in
  let n = Array.length a in
  let sorted = Array.copy a in
  Array.sort compare sorted;
  let fresh = Array.make n 0 in
  let v = ref (Random.State.int rng 5) in
  for i = 0 to n - 1 do
    fresh.(i) <- !v;
    v := !v + 1 + Random.State.int rng 7
  done;
  let image = Hashtbl.create (2 * n) in
  Array.iteri (fun i id -> Hashtbl.replace image id fresh.(i)) sorted;
  Ids.of_array (Array.map (fun id -> Hashtbl.find image id) a)

let find_order_variance ?backend ~rng ~trials alg lg =
  let n = Labelled.order lg in
  let rec go k =
    if k >= trials then None
    else
      let ids_a = Ids.shuffled rng n in
      let ids_b = monotone_reembedding rng ids_a in
      let out_a = Runner.run ?backend alg lg ~ids:ids_a in
      let out_b = Runner.run ?backend alg lg ~ids:ids_b in
      let rec diff v =
        if v >= n then None else if out_a.(v) <> out_b.(v) then Some v else diff (v + 1)
      in
      match diff 0 with
      | Some node -> Some { Oblivious.node; ids_a; ids_b }
      | None -> go (k + 1)
  in
  go 0

type 'a po_edge = {
  port : int;
  remote_port : int;
  outward : bool;
  remote_label : 'a;
}

type 'a po_view = {
  center_label : 'a;
  incident : 'a po_edge list;
}

type ('a, 'o) po_algorithm = {
  po_name : string;
  po_decide : 'a po_view -> 'o;
}

let run_po alg lg ~oriented =
  let g = Labelled.graph lg in
  let invalid fmt = Format.kasprintf (fun s -> raise (Graph.Invalid_graph s)) fmt in
  let dir = Hashtbl.create 32 in
  List.iter
    (fun (u, v) ->
      if not (Graph.mem_edge g u v) then invalid "orientation of a non-edge %d-%d" u v;
      if Hashtbl.mem dir (u, v) || Hashtbl.mem dir (v, u) then
        invalid "edge %d-%d oriented twice" u v;
      Hashtbl.replace dir (u, v) ())
    oriented;
  if Hashtbl.length dir <> Graph.size g then invalid "orientation misses some edges";
  let port_of u v =
    let nbrs = Graph.neighbours g u in
    let rec find i = if nbrs.(i) = v then i else find (i + 1) in
    find 0
  in
  Array.init (Labelled.order lg) (fun v ->
      let incident =
        Graph.neighbours g v
        |> Array.to_list
        |> List.mapi (fun port u ->
               {
                 port;
                 remote_port = port_of u v;
                 outward = Hashtbl.mem dir (v, u);
                 remote_label = Labelled.label lg u;
               })
      in
      alg.po_decide { center_label = Labelled.label lg v; incident })

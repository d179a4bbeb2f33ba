open Locald_graph

type witness = {
  subgraph_nodes : int array;
}

(* Grow a connected chunk of the requested size by BFS from a random
   seed, exploring neighbours in random order. *)
let random_connected_chunk rng g ~size =
  let n = Graph.order g in
  let seed = Random.State.int rng n in
  let chosen = Hashtbl.create 16 in
  Hashtbl.replace chosen seed ();
  let frontier = ref [ seed ] in
  while Hashtbl.length chosen < size && !frontier <> [] do
    let pick = Random.State.int rng (List.length !frontier) in
    let v = List.nth !frontier pick in
    (* The smallest neighbour not yet chosen, or -1. *)
    let fresh =
      Graph.fold_neighbours
        (fun u acc -> if acc < 0 && not (Hashtbl.mem chosen u) then u else acc)
        g v (-1)
    in
    if fresh < 0 then frontier := List.filter (fun u -> u <> v) !frontier
    else begin
      Hashtbl.replace chosen fresh ();
      frontier := fresh :: !frontier
    end
  done;
  Hashtbl.fold (fun v () acc -> v :: acc) chosen []
  |> List.sort compare |> Array.of_list

(* All connected vertex subsets of a small graph, by growing from each
   seed. *)
let all_connected_subsets g =
  let n = Graph.order g in
  let module S = Set.Make (Int) in
  let seen = Hashtbl.create 256 in
  let results = ref [] in
  let rec grow set =
    let key = S.elements set in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      results := key :: !results;
      S.iter
        (fun v ->
          Graph.iter_neighbours
            (fun u -> if not (S.mem u set) then grow (S.add u set))
            g v)
        set
    end
  in
  for v = 0 to n - 1 do
    grow (S.singleton v)
  done;
  List.map Array.of_list !results

let violates p lg nodes =
  Array.length nodes > 0
  && Array.length nodes < Labelled.order lg
  &&
  let sub, _ = Labelled.induced lg nodes in
  not (p.Property.mem sub)

let connected_induced_counterexample ~rng ~samples p lg =
  if not (p.Property.mem lg) then None
  else begin
    let g = Labelled.graph lg in
    let n = Graph.order g in
    if n = 0 then None
    else if n <= 12 then
      all_connected_subsets g
      |> List.find_opt (violates p lg)
      |> Option.map (fun nodes -> { subgraph_nodes = nodes })
    else begin
      let rec go k =
        if k >= samples then None
        else
          let size = 1 + Random.State.int rng (n - 1) in
          let nodes = random_connected_chunk rng g ~size in
          if violates p lg nodes then Some { subgraph_nodes = nodes }
          else go (k + 1)
      in
      go 0
    end
  end

let looks_hereditary_on ~rng ~samples p instances =
  List.for_all
    (fun lg -> connected_induced_counterexample ~rng ~samples p lg = None)
    instances

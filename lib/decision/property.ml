open Locald_graph

type 'a t = {
  name : string;
  mem : 'a Labelled.t -> bool;
}

let make ~name mem = { name; mem }

let random_permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let check_invariance ~rng ~trials p lg =
  let reference = p.mem lg in
  let n = Labelled.order lg in
  let rec go k =
    if k >= trials then true
    else
      let perm = random_permutation rng n in
      if p.mem (Labelled.relabel_nodes lg perm) <> reference then false
      else go (k + 1)
  in
  (* A shortcut, not a guard: the empty graph's one relabelling is the
     identity, and [Labelled.relabel_nodes] handles it. *)
  if n = 0 then true else go 0

let proper_colouring ~k =
  make ~name:(Printf.sprintf "proper-%d-colouring" k) (fun lg ->
      let g = Labelled.graph lg in
      Graph.fold_vertices
        (fun v acc ->
          let c = Labelled.label lg v in
          acc && c >= 0 && c < k
          && Graph.for_all_neighbours (fun u -> Labelled.label lg u <> c) g v)
        g true)

let maximal_independent_set =
  make ~name:"maximal-independent-set" (fun lg ->
      let g = Labelled.graph lg in
      let in_set v = Labelled.label lg v = 1 in
      Graph.fold_vertices
        (fun v acc ->
          let independent =
            (not (in_set v))
            || Graph.for_all_neighbours (fun u -> not (in_set u)) g v
          in
          let dominated = in_set v || Graph.exists_neighbour in_set g v in
          acc && independent && dominated)
        g true)

let all_equal =
  make ~name:"all-labels-equal" (fun lg ->
      let labels = Labelled.labels lg in
      Array.length labels = 0 || Array.for_all (fun x -> x = labels.(0)) labels)

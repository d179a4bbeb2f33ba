(* Isomorphism by 1-WL colour refinement followed by backtracking.

   The refinement assigns canonical colour numbers: at each round the
   (old colour, sorted neighbour colours) keys are sorted and numbered
   in key order, so two isomorphic coloured graphs end with the same
   colour multiset. The backtracking search then only matches vertices
   of equal final colour, maintaining both the forward and the inverse
   partial map so that edges *and* non-edges are preserved at every
   extension step. *)

type key = int * int list

let round_keys g colors =
  Array.mapi
    (fun v c ->
      let nbr = Graph.neighbours g v in
      Array.map_inplace (fun u -> colors.(u)) nbr;
      Array.sort compare nbr;
      ((c, Array.to_list nbr) : key))
    colors

let canonical_renumber (keyss : key array list) : int array list =
  let all = List.concat_map Array.to_list keyss in
  let distinct = List.sort_uniq compare all in
  let tbl = Hashtbl.create (2 * List.length distinct) in
  List.iteri (fun i k -> Hashtbl.replace tbl k i) distinct;
  List.map (Array.map (fun k -> Hashtbl.find tbl k)) keyss

let count_distinct colors =
  let module S = Set.Make (Int) in
  S.cardinal (Array.fold_left (fun s c -> S.add c s) S.empty colors)

(* Jointly refine the colourings of several graphs until the total
   number of distinct colours stabilises — but at most a fixed number
   of rounds: refinement is only a pruning / bucketing aid (the
   backtracking search is what decides isomorphism exactly), and on
   large graphs that split one colour class per round, running to the
   fixpoint costs Theta(n) rounds of Theta(n) allocation. A fixed
   round count keeps the colouring canonical (both sides always
   perform the same rounds). *)
let max_refinement_rounds = 6

let refine_joint (pairs : (Graph.t * int array) list) : int array list =
  let graphs = List.map fst pairs in
  let rec go rounds colorss =
    if rounds >= max_refinement_rounds then colorss
    else
      let keyss = List.map2 round_keys graphs colorss in
      let colorss' = canonical_renumber keyss in
      let total cs = List.fold_left (fun acc c -> acc + count_distinct c) 0 cs in
      if total colorss' = total colorss then colorss' else go (rounds + 1) colorss'
  in
  (* Renumber the initial colours canonically as well, so arbitrary
     initial colour values (e.g. hashes) become comparable. *)
  let init =
    canonical_renumber (List.map (fun (_, c) -> Array.map (fun x -> (x, [])) c) pairs)
  in
  go 0 init

(* [refine_joint] on one graph, stopping as soon as the colouring is
   discrete: a discrete colouring is numbered 0..n-1 and its round keys
   have distinct first components, so the next round would renumber
   every vertex to its own colour and stop there anyway. *)
let refine_colors g colors =
  let n = Graph.order g in
  let renumber keys =
    match canonical_renumber [ keys ] with [ c ] -> c | _ -> assert false
  in
  let rec go rounds colors distinct =
    if rounds >= max_refinement_rounds || distinct = n then colors
    else
      let colors' = renumber (round_keys g colors) in
      let distinct' = count_distinct colors' in
      if distinct' = distinct then colors' else go (rounds + 1) colors' distinct'
  in
  let init = renumber (Array.map (fun x -> (x, [])) colors) in
  go 0 init (count_distinct init)

let sorted_copy a =
  let b = Array.copy a in
  Array.sort compare b;
  b

(* Backtracking extension of a partial isomorphism. [anchor] optionally
   pre-maps one vertex (the view centre). *)
let search g h colors_g colors_h anchor =
  let n = Graph.order g in
  if Graph.order h <> n || Graph.size g <> Graph.size h then None
  else if sorted_copy colors_g <> sorted_copy colors_h then None
  else begin
    let fwd = Array.make n (-1) in
    let inv = Array.make n (-1) in
    (* Most-constrained-first vertex order: small colour class, then
       high degree. *)
    let class_size = Hashtbl.create 16 in
    Array.iter
      (fun c ->
        Hashtbl.replace class_size c (1 + Option.value ~default:0 (Hashtbl.find_opt class_size c)))
      colors_g;
    let order = Array.init n Fun.id in
    Array.sort
      (fun u v ->
        match compare (Hashtbl.find class_size colors_g.(u)) (Hashtbl.find class_size colors_g.(v)) with
        | 0 -> compare (Graph.degree g v) (Graph.degree g u)
        | c -> c)
      order;
    let consistent u v =
      colors_g.(u) = colors_h.(v)
      && Graph.degree g u = Graph.degree h v
      && Graph.for_all_neighbours
           (fun w -> fwd.(w) = -1 || Graph.mem_edge h fwd.(w) v)
           g u
      && Graph.for_all_neighbours
           (fun y -> inv.(y) = -1 || Graph.mem_edge g inv.(y) u)
           h v
    in
    let rec assign i =
      if i >= n then true
      else
        let u = order.(i) in
        if fwd.(u) >= 0 then assign (i + 1)
        else
          let rec try_candidates v =
            if v >= n then false
            else if inv.(v) = -1 && consistent u v then begin
              fwd.(u) <- v;
              inv.(v) <- u;
              if assign (i + 1) then true
              else begin
                fwd.(u) <- -1;
                inv.(v) <- -1;
                try_candidates (v + 1)
              end
            end
            else try_candidates (v + 1)
          in
          try_candidates 0
    in
    let anchored =
      match anchor with
      | None -> true
      | Some (u, v) ->
          if consistent u v then begin
            fwd.(u) <- v;
            inv.(v) <- u;
            true
          end
          else false
    in
    if anchored && assign 0 then Some fwd else None
  end

let joint_colors_of_labels eq labels_g labels_h =
  (* Group the labels of both graphs by [eq]; the colour of a label is
     the index of its first occurrence in the concatenated list. *)
  let all = Array.append labels_g labels_h in
  let reps = ref [] in
  let color_of x =
    let rec find i = function
      | [] ->
          reps := !reps @ [ x ];
          i
      | y :: rest -> if eq x y then i else find (i + 1) rest
    in
    find 0 !reps
  in
  let colors = Array.map color_of all in
  let ng = Array.length labels_g in
  (Array.sub colors 0 ng, Array.sub colors ng (Array.length labels_h))

let find_isomorphism_colored g h cg ch anchor =
  match refine_joint [ (g, cg); (h, ch) ] with
  | [ cg'; ch' ] -> search g h cg' ch' anchor
  | _ -> assert false

let find_graph_isomorphism g h =
  let cg = Array.make (Graph.order g) 0 in
  let ch = Array.make (Graph.order h) 0 in
  find_isomorphism_colored g h cg ch None

let graphs_isomorphic g h = Option.is_some (find_graph_isomorphism g h)

let labelled_isomorphic eq a b =
  let cg, ch = joint_colors_of_labels eq (Labelled.labels a) (Labelled.labels b) in
  Option.is_some
    (find_isomorphism_colored (Labelled.graph a) (Labelled.graph b) cg ch None)

let views_isomorphic eq (a : 'a View.t) (b : 'a View.t) =
  let cg, ch = joint_colors_of_labels eq a.View.labels b.View.labels in
  Option.is_some
    (find_isomorphism_colored a.View.graph b.View.graph cg ch
       (Some (a.View.center, b.View.center)))

let view_signature hash (v : 'a View.t) =
  let d = View.dist_from_center v in
  (* Combine the label hash with the distance from the centre so the
     rooting participates in the refinement. *)
  let init = Array.mapi (fun i x -> Hashtbl.hash (hash x, d.(i))) v.View.labels in
  let final = refine_colors v.View.graph init in
  let multiset = sorted_copy final in
  Hashtbl.hash (final.(v.View.center), Array.to_list multiset, Graph.size v.View.graph)

(* The order type of an injective id restriction: ids.(i) is replaced
   by its rank in the sorted order, so [|5;1;9|] and [|7;2;8|] share
   the order type [|1;0;2|]. Two restrictions with the same order type
   are indistinguishable to an order-invariant algorithm (the
   order-invariance reductions of Naor–Stockmeyer and of
   Fraigniaud–Halldorsson–Korman). *)
let order_type ids =
  let n = Array.length ids in
  let idx = Array.init n Fun.id in
  Array.sort (fun i j -> compare ids.(i) ids.(j)) idx;
  let ranks = Array.make n 0 in
  Array.iteri (fun r i -> ranks.(i) <- r) idx;
  ranks

let views_isomorphic_decorated eq (a : 'a View.t) da (b : 'a View.t) db =
  let paired v deco = Array.mapi (fun i x -> (x, deco.(i))) v.View.labels in
  let eq' (x, dx) (y, dy) = eq x y && (dx : int) = dy in
  let cg, ch = joint_colors_of_labels eq' (paired a da) (paired b db) in
  Option.is_some
    (find_isomorphism_colored a.View.graph b.View.graph cg ch
       (Some (a.View.center, b.View.center)))

let decorated_signature hash (v : 'a View.t) deco =
  let d = View.dist_from_center v in
  (* Like {!view_signature}, with the per-node decoration folded into
     the initial colours: isomorphic decorated views (an isomorphism
     preserving labels AND decoration values) get equal signatures. *)
  let init =
    Array.mapi (fun i x -> Hashtbl.hash (hash x, d.(i), deco.(i))) v.View.labels
  in
  let final = refine_colors v.View.graph init in
  let multiset = sorted_copy final in
  Hashtbl.hash
    (final.(v.View.center), Array.to_list multiset, Graph.size v.View.graph, 1)

(* Isomorphism by 1-WL colour refinement followed by backtracking.

   The refinement assigns canonical colour numbers: at each round every
   vertex's key (old colour, sorted neighbour colours) is replaced by
   its rank among the distinct keys in lexicographic order, so two
   isomorphic coloured graphs end with the same colour multiset. The
   backtracking search then only matches vertices of equal final
   colour, maintaining both the forward and the inverse partial map so
   that edges *and* non-edges are preserved at every extension step. *)

(* Refinement runs at most this many rounds: it is only a pruning /
   bucketing aid (the backtracking search is what decides isomorphism
   exactly), and on large graphs that split one colour class per round,
   running to the fixpoint costs Theta(n) rounds of Theta(n) work. A
   fixed round count keeps the colouring canonical (both sides always
   perform the same rounds). *)
let max_refinement_rounds = 6

(* The refinement kernel. [init] gives each vertex of [g] an initial
   colour (any int); the vertices below [split] and the rest count as
   two graphs for the stopping rule, which stops when the number of
   colours summed over the two stops growing. Returns the final
   colouring and [order], the vertices sorted by it.

   [order] stays sorted by colour, so each round fills [buf], one slice
   per vertex at the graph's degree offsets, by visiting the vertices
   in [order] and appending each one's colour to its neighbours'
   slices: every slice comes out sorted without a sort. A round then
   merge-sorts [order] by key, colour first and then slice,
   lexicographically, and numbers the keys in that order. A merge
   comparison costs at most the slice length of the vertex it places,
   so a round is O((n + m) log n) however high a degree. Everything is
   local to the call, so calls may run on several domains at once. *)
let refine g ~split init =
  let n = Graph.order g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let buf = Array.make off.(n) 0 and next = Array.make n 0 in
  let order = Array.init n Fun.id in
  let col = Array.make n 0 and col' = Array.make n 0 in
  (* Number the vertices of [order] into [col']: a vertex gets the
     colour of its predecessor when [same] holds for the two, else the
     next colour. Returns the number of colours and the colour counts of
     the two graphs summed; [col'] becomes the current colouring. *)
  let number same =
    let k = ref 0 and total = ref 0 and parts = ref 0 in
    for i = 0 to n - 1 do
      let v = order.(i) in
      if i > 0 && not (same order.(i - 1) v) then begin
        incr k;
        total := !total + (!parts land 1) + (!parts lsr 1);
        parts := 0
      end;
      parts := !parts lor (if v < split then 1 else 2);
      col'.(v) <- !k
    done;
    Array.blit col' 0 col 0 n;
    if n = 0 then (0, 0) else (!k + 1, !total + (!parts land 1) + (!parts lsr 1))
  in
  let compare_slices a b =
    let oa = off.(a) and ob = off.(b) in
    let la = off.(a + 1) - oa and lb = off.(b + 1) - ob in
    let len = if la < lb then la else lb in
    let rec go i =
      if i = len then Int.compare la lb
      else
        let c = Int.compare buf.(oa + i) buf.(ob + i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0
  in
  let colour = ref 0 in
  let append w =
    buf.(next.(w)) <- !colour;
    next.(w) <- next.(w) + 1
  in
  let round () =
    Array.blit off 0 next 0 n;
    for i = 0 to n - 1 do
      let u = order.(i) in
      colour := col.(u);
      Graph.iter_neighbours append g u
    done;
    let compare_keys a b =
      let c = Int.compare col.(a) col.(b) in
      if c <> 0 then c else compare_slices a b
    in
    Array.stable_sort compare_keys order;
    number (fun a b -> compare_keys a b = 0)
  in
  Array.stable_sort (fun a b -> Int.compare init.(a) init.(b)) order;
  let rec go rounds (k, total) =
    (* A discrete colouring ([k = n]) is a fixpoint of [round]. *)
    if rounds < max_refinement_rounds && k < n then
      let k', total' = round () in
      if total' <> total then go (rounds + 1) (k', total')
  in
  go 0 (number (fun a b -> init.(a) = init.(b)));
  (col, order)

let refine_colors g colors = fst (refine g ~split:(Graph.order g) colors)

let refine_joint g cg h ch =
  let ng = Graph.order g in
  let col, _ = refine (Graph.disjoint_union g h) ~split:ng (Array.append cg ch) in
  (Array.sub col 0 ng, Array.sub col ng (Graph.order h))

(* Backtracking extension of a partial isomorphism, given joint colours
   of [g] and [h] (numbered from 0, below [order g + order h]). [anchor]
   optionally pre-maps one vertex (the view centre). *)
let search g h colors_g colors_h anchor =
  let n = Graph.order g in
  let class_sizes colors =
    let a = Array.make (2 * n) 0 in
    Array.iter (fun c -> a.(c) <- a.(c) + 1) colors;
    a
  in
  if Graph.order h <> n || Graph.size g <> Graph.size h then None
  else if class_sizes colors_g <> class_sizes colors_h then None
  else begin
    let fwd = Array.make n (-1) in
    let inv = Array.make n (-1) in
    (* Most-constrained-first vertex order: small colour class, then
       high degree. *)
    let class_size = class_sizes colors_g in
    let order = Array.init n Fun.id in
    Array.sort
      (fun u v ->
        match compare class_size.(colors_g.(u)) class_size.(colors_g.(v)) with
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
  let cg', ch' = refine_joint g cg h ch in
  search g h cg' ch' anchor

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

let view_refinement hash (v : 'a View.t) =
  let g = v.View.graph in
  let n = Graph.order g in
  (* Combine the label hash with the distance from the centre so the
     rooting participates in the refinement. *)
  let init = View.dist_from_center v in
  Array.iteri (fun i x -> init.(i) <- Hashtbl.hash (hash x, init.(i))) v.View.labels;
  let col, order = refine g ~split:n init in
  let multiset = ref [] in
  for i = n - 1 downto 0 do
    multiset := col.(order.(i)) :: !multiset
  done;
  let signature = Hashtbl.hash (col.(v.View.center), !multiset, Graph.size g) in
  (signature, if col.(order.(n - 1)) = n - 1 then Some col else None)

let view_signature hash v = fst (view_refinement hash v)

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

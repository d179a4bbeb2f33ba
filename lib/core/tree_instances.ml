open Locald_graph
module Lt = Layered_tree

type label =
  | Tree of Lt.label
  | Pivot of int

let equal_label (a : label) b = a = b

let pp_label ppf = function
  | Tree l -> Lt.pp_label ppf l
  | Pivot r -> Format.fprintf ppf "pivot(r=%d)" r

type params = {
  regime : Locald_local.Ids.regime;
  arity : int;
  r : int;
}

let depth p = Bound.big_r ~regime:p.regime ~arity:p.arity ~r:p.r

(* T_r is induced from repeatedly when enumerating the small instances;
   memoise it by its numeric shape (the regime only enters through the
   computed depth). The serve daemon reaches this from concurrent
   requests (engine builds, certify), so the table is locked. *)
let tree_cache : (int * int * int, label Labelled.t) Hashtbl.t = Hashtbl.create 8
let tree_cache_lock = Mutex.create ()

let big_tree p =
  let d = depth p in
  let key = (p.arity, p.r, d) in
  Mutex.protect tree_cache_lock @@ fun () ->
  match Hashtbl.find_opt tree_cache key with
  | Some t -> t
  | None ->
      let t = Labelled.map (fun l -> Tree l) (Lt.make ~arity:p.arity ~r:p.r ~depth:d) in
      if Hashtbl.length tree_cache > 32 then Hashtbl.reset tree_cache;
      Hashtbl.replace tree_cache key t;
      t

let apexes p = Lt.apexes ~arity:p.arity ~depth:(depth p) ~r:p.r

(* Coordinates of a big-tree node index, recovered level by level. *)
let coord_of_index ~arity v =
  let rec find_level y =
    if Lt.level_offset ~arity (y + 1) > v then y else find_level (y + 1)
  in
  let y = find_level 0 in
  (v - Lt.level_offset ~arity y, y)

let border_indices p ~apex =
  Lt.cone_border ~arity:p.arity ~depth:(depth p) ~apex ~r:p.r

let border_coords p ~apex =
  border_indices p ~apex
  |> Array.to_list
  |> List.map (fun v ->
         let x, y = coord_of_index ~arity:p.arity v in
         { Lt.r = p.r; x; y })
  |> List.sort compare

let small_instance_gen p ~apex ~pivot_edges =
  let t = big_tree p in
  let members = Lt.cone ~arity:p.arity ~apex ~r:p.r in
  let sub, back = Labelled.induced t members in
  let k = Labelled.order sub in
  (* Map big-tree indices to cone indices. *)
  let local = Hashtbl.create (2 * k) in
  Array.iteri (fun i v -> Hashtbl.replace local v i) back;
  let g = Graph.add_vertices (Labelled.graph sub) 1 in
  let pivot = k in
  let edges =
    List.map (fun v -> (pivot, Hashtbl.find local v)) (pivot_edges ~local)
  in
  let g = Graph.add_edges g edges in
  Labelled.make g (Array.append (Labelled.labels sub) [| Pivot p.r |])

let small_instance p ~apex =
  small_instance_gen p ~apex ~pivot_edges:(fun ~local:_ ->
      Array.to_list (border_indices p ~apex))

let cone_without_pivot p ~apex =
  let t = big_tree p in
  let members = Lt.cone ~arity:p.arity ~apex ~r:p.r in
  fst (Labelled.induced t members)

let two_pivots p ~apex =
  let base = small_instance p ~apex in
  let k = Labelled.order base in
  let second_pivot_edges =
    Graph.fold_neighbours (fun v acc -> (k, v) :: acc) (Labelled.graph base) (k - 1) []
  in
  let g = Graph.add_vertices (Labelled.graph base) 1 in
  let g = Graph.add_edges g second_pivot_edges in
  Labelled.make g (Array.append (Labelled.labels base) [| Pivot p.r |])

let pivot_on_interior p ~apex =
  let members = Lt.cone ~arity:p.arity ~apex ~r:p.r in
  let border = border_indices p ~apex in
  let is_border = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace is_border v ()) border;
  let interior =
    Array.to_list members |> List.filter (fun v -> not (Hashtbl.mem is_border v))
  in
  match interior with
  | [] -> small_instance p ~apex
  | witness :: _ ->
      small_instance_gen p ~apex ~pivot_edges:(fun ~local:_ ->
          witness :: Array.to_list border)

let truncated_tree p ~keep_depth =
  let t = big_tree p in
  let members = ref [] in
  for y = keep_depth downto 0 do
    for x = Lt.level_width ~arity:p.arity y - 1 downto 0 do
      members := Lt.node_index ~arity:p.arity ~x ~y :: !members
    done
  done;
  fst (Labelled.induced t (Array.of_list !members))

type kind = Small | Large | Neither

(* Exact structural classification from coordinates. *)
let classify p lg =
  let g = Labelled.graph lg in
  let n = Labelled.order lg in
  if n = 0 then Neither
  else begin
    let d = depth p in
    let pivots = ref [] in
    let coords = Hashtbl.create (2 * n) in
    let ok = ref true in
    for v = 0 to n - 1 do
      match Labelled.label lg v with
      | Pivot r -> if r = p.r then pivots := v :: !pivots else ok := false
      | Tree { r; x; y } ->
          if r <> p.r || y < 0 || y > d || x < 0 || x >= Lt.level_width ~arity:p.arity y
          then ok := false
          else if Hashtbl.mem coords (x, y) then ok := false
          else Hashtbl.replace coords (x, y) v
    done;
    if not !ok then Neither
    else begin
      let node_at xy = Hashtbl.find_opt coords xy in
      (* Tree-edges expected between present coordinates: induced rules. *)
      let expected_edges () =
        Hashtbl.fold
          (fun (x, y) v acc ->
            let cands =
              (if x + 1 < Lt.level_width ~arity:p.arity y then [ (x + 1, y) ] else [])
              @
              if y + 1 <= d then
                List.init p.arity (fun j -> ((p.arity * x) + j, y + 1))
              else []
            in
            List.fold_left
              (fun acc c ->
                match node_at c with Some u -> (v, u) :: acc | None -> acc)
              acc cands)
          coords []
      in
      let edge_set_matches extra =
        let expected =
          List.map (fun (u, v) -> if u < v then (u, v) else (v, u)) (expected_edges ())
          @ extra
          |> List.sort_uniq compare
        in
        expected = Graph.edges g
      in
      match !pivots with
      | [] ->
          (* Large: full T_r. *)
          if
            Hashtbl.length coords = n
            && n = Bound.tree_size ~arity:p.arity ~depth:d
            && edge_set_matches []
          then Large
          else Neither
      | [ pivot ] ->
          (* Small: a cone plus its pivot. *)
          if Hashtbl.length coords <> n - 1 then Neither
          else begin
            (* Infer the apex from the minimal level present. *)
            let min_y =
              Hashtbl.fold (fun (_, y) _ acc -> min y acc) coords max_int
            in
            let apex_candidates =
              Hashtbl.fold
                (fun (x, y) _ acc -> if y = min_y then (x, y) :: acc else acc)
                coords []
            in
            match apex_candidates with
            | [ apex ] ->
                let y0 = snd apex in
                if y0 + p.r > d then Neither
                else begin
                  let cone = Lt.cone ~arity:p.arity ~apex ~r:p.r in
                  let cone_coords =
                    Array.to_list cone
                    |> List.map (coord_of_index ~arity:p.arity)
                    |> List.sort compare
                  in
                  let present =
                    Hashtbl.fold (fun xy _ acc -> xy :: acc) coords []
                    |> List.sort compare
                  in
                  if cone_coords <> present then Neither
                  else begin
                    let border =
                      border_coords p ~apex
                      |> List.map (fun (l : Lt.label) ->
                             Hashtbl.find coords (l.x, l.y))
                    in
                    let pivot_edges =
                      List.map
                        (fun v -> if pivot < v then (pivot, v) else (v, pivot))
                        border
                      |> List.sort_uniq compare
                    in
                    if edge_set_matches pivot_edges then Small else Neither
                  end
                end
            | _ -> Neither
          end
      | _ -> Neither
    end
  end

let in_p p lg = classify p lg = Small
let in_p' p lg = match classify p lg with Small | Large -> true | Neither -> false

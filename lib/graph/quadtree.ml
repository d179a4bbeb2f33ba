type coord3 = { x : int; y : int; z : int }
type label = { m6x : int; m6y : int; z3 : int }

let equal_label (a : label) b = a = b

let pp_label ppf { m6x; m6y; z3 } =
  Format.fprintf ppf "(x%%6=%d, y%%6=%d, z%%3=%d)" m6x m6y z3

let invalid fmt = Format.kasprintf (fun s -> raise (Graph.Invalid_graph s)) fmt

let label_of_coord ?(phase = (0, 0)) { x; y; z } =
  let px, py = phase in
  {
    m6x = (((x + px) mod 6) + 6) mod 6;
    m6y = (((y + py) mod 6) + 6) mod 6;
    z3 = z mod 3;
  }

let side ~h = 1 lsl h

let level_side ~h z = 1 lsl (h - z)

let level_order ~h z =
  let s = level_side ~h z in
  s * s

(* Geometric series: sum_{k=0}^{z-1} 4^(h-k) = (4^(h+1) - 4^(h-z+1)) / 3 *)
let level_offset ~h z =
  let rec go k acc = if k >= z then acc else go (k + 1) (acc + level_order ~h k) in
  go 0 0

let order ~h = level_offset ~h (h + 1)

let index ~h { x; y; z } = level_offset ~h z + (y * level_side ~h z) + x

let coord_of_index ~h i =
  let rec find z = if level_offset ~h (z + 1) > i then z else find (z + 1) in
  let z = find 0 in
  let rel = i - level_offset ~h z in
  let s = level_side ~h z in
  { x = rel mod s; y = rel / s; z }

let build ~h =
  if h < 0 then invalid "quadtree: negative height %d" h;
  let n = order ~h in
  let edges = ref [] in
  for z = 0 to h do
    let s = level_side ~h z in
    for y = 0 to s - 1 do
      for x = 0 to s - 1 do
        let v = index ~h { x; y; z } in
        if x + 1 < s then edges := (v, index ~h { x = x + 1; y; z }) :: !edges;
        if y + 1 < s then edges := (v, index ~h { x; y = y + 1; z }) :: !edges;
        if z < h then
          edges := (v, index ~h { x = x / 2; y = y / 2; z = z + 1 }) :: !edges
      done
    done
  done;
  Graph.of_edges ~n !edges

let labelled ?phase ~h () =
  let g = build ~h in
  Labelled.init g (fun v -> label_of_coord ?phase (coord_of_index ~h v))

type classify = Bottom of int * int | Upper of label | Foreign

let own_label classify v =
  match classify v with
  | Bottom (m6x, m6y) -> Some { m6x; m6y; z3 = 0 }
  | Upper l -> Some l
  | Foreign -> None

type dir = Left | Right | Up | Down

let dir6_between (ax, ay) b =
  let step = function
    | Left -> ((ax + 5) mod 6, ay)
    | Right -> ((ax + 1) mod 6, ay)
    | Up -> (ax, (ay + 5) mod 6)
    | Down -> (ax, (ay + 1) mod 6)
  in
  match List.filter (fun d -> step d = b) [ Left; Right; Up; Down ] with
  | [ d ] -> Some d
  | _ -> None

type edge_kind = Sibling of dir | Parent | Child

let classify_edge (me : label) (other : label) : edge_kind option =
  if other.z3 = (me.z3 + 1) mod 3 then Some Parent
  else if other.z3 = (me.z3 + 2) mod 3 then Some Child
  else if other.z3 = me.z3 then
    Option.map
      (fun d -> Sibling d)
      (dir6_between (me.m6x, me.m6y) (other.m6x, other.m6y))
  else None

let parent_of ~classify g v =
  match own_label classify v with
  | None -> None
  | Some me ->
      let parents =
        Graph.fold_neighbours
          (fun u acc ->
            match own_label classify u with
            | Some lu when classify_edge me lu = Some Parent -> u :: acc
            | Some _ | None -> acc)
          g v []
      in
      (match parents with [ p ] -> Some p | _ -> None)

let inspect ~classify g v =
  match own_label classify v with
  | None -> [ "node is not part of the pyramid" ]
  | Some me ->
      let errors = ref [] in
      let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
      let siblings = ref [] and parents = ref [] and children = ref [] in
      Graph.iter_neighbours
        (fun u ->
          match own_label classify u with
          | None -> () (* foreign edges (e.g. to the pivot) are checked by the caller *)
          | Some lu -> (
              match classify_edge me lu with
              | None -> err "unclassifiable pyramid edge %d-%d" v u
              | Some (Sibling d) -> siblings := (d, u) :: !siblings
              | Some Parent -> parents := u :: !parents
              | Some Child -> children := u :: !children))
        g v;
      (* Rule: at most one sibling per direction. *)
      let dirs = List.map fst !siblings in
      if List.length (List.sort_uniq compare dirs) <> List.length dirs then
        err "two siblings in the same direction at %d" v;
      (* Rule: one parent, or apex (no parent and no siblings). *)
      (match !parents with
      | [] ->
          if !siblings <> [] then err "non-apex node %d has no parent" v
      | [ _ ] -> ()
      | _ -> err "node %d has %d parents" v (List.length !parents));
      (* Rule: parent's mod-3 position is the halved own position, and
         parity relates sibling parents. *)
      (match !parents with
      | [ p ] -> (
          match own_label classify p with
          | None -> ()
          | Some lp ->
              if lp.m6x mod 3 <> me.m6x / 2 || lp.m6y mod 3 <> me.m6y / 2 then
                err "parent of %d has inconsistent halved position" v;
              (* Grid-adjacent nodes: equal or adjacent parents per parity. *)
              List.iter
                (fun (d, u) ->
                  match parent_of ~classify g u with
                  | None -> err "sibling %d of %d lacks a unique parent" u v
                  | Some pu ->
                      let same_expected =
                        match d with
                        | Right -> me.m6x mod 2 = 0
                        | Left -> me.m6x mod 2 = 1
                        | Down -> me.m6y mod 2 = 0
                        | Up -> me.m6y mod 2 = 1
                      in
                      if same_expected then begin
                        if pu <> p then
                          err "siblings %d,%d should share a parent" v u
                      end
                      else if pu = p then
                        err "siblings %d,%d should have distinct parents" v u
                      else if not (Graph.mem_edge g p pu) then
                        err "parents of adjacent %d,%d are not adjacent" v u)
                !siblings)
      | _ -> ());
      (* Rule: children come in oriented 2x2 blocks of four. *)
      let is_bottom = match classify v with Bottom _ -> true | _ -> false in
      (match (!children, is_bottom) with
      | [], true -> ()
      | [], false -> err "upper node %d has no children" v
      | _, true -> err "bottom node %d has children" v
      | cs, false ->
          if List.length cs <> 4 then
            err "node %d has %d children, expected 4" v (List.length cs)
          else begin
            let labelled_children =
              List.filter_map
                (fun c ->
                  match own_label classify c with
                  | Some l -> Some (c, l)
                  | None -> None)
                cs
            in
            let find_parity px py =
              List.filter
                (fun (_, l) -> l.m6x mod 2 = px && l.m6y mod 2 = py)
                labelled_children
            in
            (match (find_parity 0 0, find_parity 1 0, find_parity 0 1, find_parity 1 1) with
            | [ (nw, _) ], [ (ne, _) ], [ (sw, _) ], [ (se, _) ] ->
                if
                  not
                    (Graph.mem_edge g nw ne && Graph.mem_edge g nw sw
                   && Graph.mem_edge g ne se && Graph.mem_edge g sw se)
                then err "children of %d do not form a 2x2 block" v;
                if Graph.mem_edge g nw se || Graph.mem_edge g ne sw then
                  err "children of %d have diagonal edges" v
            | _ -> err "children of %d have wrong parities" v);
            (* Children must agree the node is their parent. *)
            List.iter
              (fun (c, _) ->
                match parent_of ~classify g c with
                | Some p when p = v -> ()
                | _ -> err "child %d does not recognise %d as parent" c v)
              labelled_children
          end);
      List.rev !errors

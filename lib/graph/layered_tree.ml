type label = { r : int; x : int; y : int }

let equal_label (a : label) b = a = b
let pp_label ppf { r; x; y } = Format.fprintf ppf "(r=%d, x=%d, y=%d)" r x y

let invalid fmt = Format.kasprintf (fun s -> raise (Graph.Invalid_graph s)) fmt

let rec power base e = if e = 0 then 1 else base * power base (e - 1)

let level_width ~arity y = power arity y

let level_offset ~arity y =
  if arity = 1 then y
  else (power arity y - 1) / (arity - 1)

let node_index ~arity ~x ~y = level_offset ~arity y + x

let order ~arity ~depth = level_offset ~arity (depth + 1)

let make ~arity ~r ~depth =
  if arity < 1 then invalid "layered tree: arity %d < 1" arity;
  if depth < 0 then invalid "layered tree: negative depth %d" depth;
  let n = order ~arity ~depth in
  let edges = ref [] in
  for y = 0 to depth do
    let width = level_width ~arity y in
    for x = 0 to width - 1 do
      let v = node_index ~arity ~x ~y in
      (* Level path. *)
      if x + 1 < width then edges := (v, node_index ~arity ~x:(x + 1) ~y) :: !edges;
      (* Children. *)
      if y < depth then
        for j = 0 to arity - 1 do
          edges := (v, node_index ~arity ~x:((arity * x) + j) ~y:(y + 1)) :: !edges
        done
    done
  done;
  let g = Graph.of_edges ~n !edges in
  let labels =
    Array.init n (fun v ->
        (* Invert [node_index]: find the level by scanning offsets. *)
        let rec find_level y =
          if level_offset ~arity (y + 1) > v then y else find_level (y + 1)
        in
        let y = find_level 0 in
        { r; x = v - level_offset ~arity y; y })
  in
  Labelled.make g labels

let apexes ~arity ~depth ~r =
  let acc = ref [] in
  for y0 = depth - r downto 0 do
    for x0 = level_width ~arity y0 - 1 downto 0 do
      acc := (x0, y0) :: !acc
    done
  done;
  !acc

let cone ~arity ~apex:(x0, y0) ~r =
  let acc = ref [] in
  for k = r downto 0 do
    let scale = power arity k in
    for x = ((x0 + 1) * scale) - 1 downto x0 * scale do
      acc := node_index ~arity ~x ~y:(y0 + k) :: !acc
    done
  done;
  Array.of_list !acc

(* Expected neighbours of node (x, y) in a depth-[depth] layered tree. *)
let expected_neighbours ~arity ~depth ~r { x; y; _ } =
  let nbrs = ref [] in
  if y > 0 then nbrs := { r; x = x / arity; y = y - 1 } :: !nbrs;
  if y < depth then
    for j = arity - 1 downto 0 do
      nbrs := { r; x = (arity * x) + j; y = y + 1 } :: !nbrs
    done;
  if x > 0 then nbrs := { r; x = x - 1; y } :: !nbrs;
  if x < level_width ~arity y - 1 then nbrs := { r; x = x + 1; y } :: !nbrs;
  !nbrs

let cone_border ~arity ~depth ~apex ~r =
  let members = cone ~arity ~apex ~r in
  let inside = Hashtbl.create (2 * Array.length members) in
  Array.iter (fun v -> Hashtbl.replace inside v ()) members;
  let _, y0 = apex in
  members
  |> Array.to_list
  |> List.filter (fun v ->
         (* Recover the coordinates of v from its index. *)
         let rec find_level y =
           if level_offset ~arity (y + 1) > v then y else find_level (y + 1)
         in
         let y = find_level y0 in
         let x = v - level_offset ~arity y in
         expected_neighbours ~arity ~depth ~r:0 { r = 0; x; y }
         |> List.exists (fun l ->
                not (Hashtbl.mem inside (node_index ~arity ~x:l.x ~y:l.y))))
  |> Array.of_list

type node_check = {
  label_ok : bool;
  missing : label list;
  unexpected_tree : int list;
  foreign : int list;
}

let is_interior_ok c =
  c.label_ok && c.missing = [] && c.unexpected_tree = [] && c.foreign = []

let inspect ~arity ~depth ~label_of g v =
  match label_of v with
  | None -> None
  | Some ({ r; x; y } as lab) ->
      let label_ok = y >= 0 && y <= depth && x >= 0 && x < level_width ~arity y in
      if not label_ok then
        Some { label_ok; missing = []; unexpected_tree = []; foreign = [] }
      else begin
        let expected = expected_neighbours ~arity ~depth ~r lab in
        let foreign = ref [] in
        let tree_nbr_labels = ref [] in
        let unexpected = ref [] in
        Graph.iter_neighbours
          (fun u ->
            match label_of u with
            | None -> foreign := u :: !foreign
            | Some lu ->
                if List.mem lu expected && not (List.mem lu !tree_nbr_labels) then
                  tree_nbr_labels := lu :: !tree_nbr_labels
                else unexpected := u :: !unexpected)
          g v;
        let missing =
          List.filter (fun l -> not (List.mem l !tree_nbr_labels)) expected
        in
        Some
          {
            label_ok;
            missing;
            unexpected_tree = List.rev !unexpected;
            foreign = List.rev !foreign;
          }
      end

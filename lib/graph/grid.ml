type coord = { x : int; y : int }

let index ~w { x; y } = (y * w) + x
let coord_of_index ~w i = { x = i mod w; y = i / w }
let graph ~w ~h = Gen.grid w h

let mod3 ?(phase = (0, 0)) { x; y } =
  let px, py = phase in
  (((x + px) mod 3 + 3) mod 3, ((y + py) mod 3 + 3) mod 3)

type dir = Left | Right | Up | Down

let opposite = function
  | Left -> Right
  | Right -> Left
  | Up -> Down
  | Down -> Up

let step_mod3 (a, b) = function
  | Left -> ((a + 2) mod 3, b)
  | Right -> ((a + 1) mod 3, b)
  | Up -> (a, (b + 2) mod 3)
  | Down -> (a, (b + 1) mod 3)

let dir_between a b =
  let candidates = [ Left; Right; Up; Down ] in
  match List.filter (fun d -> step_mod3 a d = b) candidates with
  | [ d ] -> Some d
  | _ -> None

let locally_oriented ~mod3_of g v =
  let own = mod3_of v in
  let seen = Hashtbl.create 4 in
  Graph.for_all_neighbours
    (fun u ->
      match dir_between own (mod3_of u) with
      | None -> false
      | Some d ->
          if Hashtbl.mem seen d then false
          else begin
            Hashtbl.replace seen d ();
            true
          end)
    g v

let neighbour_in_dir ~mod3_of g v dir =
  let own = mod3_of v in
  let hits =
    Graph.fold_neighbours
      (fun u acc -> if dir_between own (mod3_of u) = Some dir then u :: acc else acc)
      g v []
  in
  match hits with [ u ] -> Some u | _ -> None

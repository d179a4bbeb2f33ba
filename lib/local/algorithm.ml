open Locald_graph

type ('a, 'o) t = {
  name : string;
  radius : int;
  decide : 'a View.t -> 'o;
}

type ('a, 'o) oblivious = {
  ob_name : string;
  ob_radius : int;
  ob_decide : 'a View.t -> 'o;
}

let make ~name ~radius decide =
  if radius < 0 then invalid_arg "Algorithm.make: negative radius";
  { name; radius; decide }

let make_oblivious ~name ~radius ob_decide =
  if radius < 0 then invalid_arg "Algorithm.make_oblivious: negative radius";
  { ob_name = name; ob_radius = radius; ob_decide }

let of_oblivious ob =
  {
    name = ob.ob_name;
    radius = ob.ob_radius;
    decide = (fun view -> ob.ob_decide (View.strip_ids view));
  }

(* Attribute a [View.No_ids] escape to the algorithm that raised it:
   the accessor alone cannot know which algorithm was running. *)
let named name decide view =
  try decide view
  with View.No_ids msg -> raise (View.No_ids (name ^ ": " ^ msg))

let named_decide t view = named t.name t.decide view

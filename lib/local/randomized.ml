open Locald_graph

type ('a, 'o) t = {
  name : string;
  radius : int;
  decide : Random.State.t -> 'a View.t -> 'o;
}

let make ~name ~radius decide =
  if radius < 0 then invalid_arg "Randomized.make: negative radius";
  { name; radius; decide }

let geometric rng =
  let rec go l = if Random.State.bool rng then l else go (l + 1) in
  go 1

let four_pow_capped ~cap l =
  let rec go acc k =
    if k = 0 then acc else if acc > cap / 4 then cap else go (4 * acc) (k - 1)
  in
  go 1 l

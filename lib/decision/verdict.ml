type t =
  | Accept
  | Reject of int list

let of_outputs outputs =
  let nos = ref [] in
  Array.iteri (fun v yes -> if not yes then nos := v :: !nos) outputs;
  match List.rev !nos with [] -> Accept | nos -> Reject nos

let accepts = function Accept -> true | Reject _ -> false
let rejects t = not (accepts t)

let pp ppf = function
  | Accept -> Format.fprintf ppf "accept"
  | Reject nos ->
      Format.fprintf ppf "reject@%a"
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Format.pp_print_int)
        (match nos with _ :: _ :: _ :: _ -> [ List.hd nos ] | l -> l)

module Outcome = struct
  type t = Accept | Reject | Unknown

  let of_bool b = if b then Accept else Reject

  let to_string = function
    | Accept -> "accept"
    | Reject -> "reject"
    | Unknown -> "unknown"

  let pp ppf o = Format.pp_print_string ppf (to_string o)
end

type degraded = {
  verdict : t;
  unknowns : int list;
}

let of_outcomes outcomes =
  let nos = ref [] and unknowns = ref [] in
  Array.iteri
    (fun v (o : Outcome.t) ->
      match o with
      | Outcome.Accept -> ()
      | Outcome.Reject -> nos := v :: !nos
      | Outcome.Unknown -> unknowns := v :: !unknowns)
    outcomes;
  {
    verdict = (match List.rev !nos with [] -> Accept | nos -> Reject nos);
    unknowns = List.rev !unknowns;
  }

let decisive d = d.unknowns = []
let degraded d = not (decisive d)

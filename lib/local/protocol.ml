open Locald_graph

type ('i, 's, 'm) t = {
  proto_name : string;
  init : id:int -> degree:int -> input:'i -> 's;
  round : 's -> received:'m array -> 's;
  emit : 's -> 'm;
  halted : 's -> bool;
}

type outcome = {
  rounds_used : int;
  all_halted : bool;
}

let run ~max_rounds proto lg ~ids =
  let g = Labelled.graph lg in
  let n = Graph.order g in
  if Ids.size ids <> n then
    raise (Ids.Invalid_ids (Printf.sprintf "%d ids for %d nodes" (Ids.size ids) n));
  let state =
    Array.init n (fun v ->
        proto.init ~id:(Ids.assign ids v) ~degree:(Graph.degree g v)
          ~input:(Labelled.label lg v))
  in
  let everyone_halted () = Array.for_all proto.halted state in
  let rounds = ref 0 in
  while (not (everyone_halted ())) && !rounds < max_rounds do
    incr rounds;
    let outbox = Array.map proto.emit state in
    let next =
      Array.init n (fun v ->
          if proto.halted state.(v) then state.(v)
          else
            let received =
              Array.init (Graph.degree g v) (fun k -> outbox.(Graph.neighbour g v k))
            in
            proto.round state.(v) ~received)
    in
    Array.blit next 0 state 0 n
  done;
  (state, { rounds_used = !rounds; all_halted = everyone_halted () })

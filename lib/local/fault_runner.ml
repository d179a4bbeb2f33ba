open Locald_graph

type reason = Outcome.reason =
  | Crashed
  | Incomplete_view
  | Fuel_exhausted
  | Decide_failed

type 'o outcome = 'o Outcome.t = Decided of 'o | Unknown of reason

let decided = Outcome.decided

let reason_name = Outcome.reason_name

let pp_outcome = Outcome.pp

type stats = {
  rounds : int;
  messages : int;
  delivered : int;
  dropped : int;
  duplicated : int;
  payload_items : int;
  new_items : int;
  crashed : int;
  incomplete : int;
  fuel_exhausted : int;
}

let degraded_nodes s = s.crashed + s.incomplete + s.fuel_exhausted

let default_cost view = View.order view

(* Synchronous full-information gossip (see Knowledge) under a fault
   plan. Every node accumulates (id -> label) bindings and id-keyed
   edges. One round is run beyond the horizon so that edges between two
   exactly-distance-t nodes are also learned — the "t +- 1"
   correspondence of Section 1.2. Structure per round: snapshot all
   knowledge, then for every live receiver and live neighbour, flip
   the plan's coins for that directed link. Lost messages transfer
   nothing — in particular the receiver does not even learn the
   sender's identifier, so the incident edge is not recorded either.
   Crashed nodes stop sending from their crash round on (their last
   pre-crash snapshot is never re-offered) and their own knowledge
   freezes. *)
let run ~plan ?(cost = default_cost) alg lg ~ids =
  ignore (Faults.validate plan);
  Runner.check_size lg ids;
  let module Tel = Locald_runtime.Telemetry in
  Tel.span "faults.run" @@ fun () ->
  let g = Labelled.graph lg in
  let n = Graph.order g in
  let id = Ids.to_array ids in
  let crash_at = Array.init n (fun v -> Faults.crash_round plan v) in
  let messages = ref 0
  and delivered = ref 0
  and dropped = ref 0
  and duplicated = ref 0
  and payload_items = ref 0
  and new_items = ref 0 in
  let state =
    Array.init n (fun v ->
        let k = Knowledge.create () in
        Knowledge.add_node k id.(v) (Labelled.label lg v);
        k)
  in
  let rounds = alg.Algorithm.radius + 1 + plan.Faults.retries in
  for round = 1 to rounds do
    let snapshot = Array.map Knowledge.copy state in
    let alive v =
      match crash_at.(v) with None -> true | Some r -> round < r
    in
    for v = 0 to n - 1 do
      if alive v then
        Graph.iter_neighbours
          (fun u ->
            if alive u then begin
              incr messages;
              if Faults.drops plan ~round ~src:u ~dst:v then begin
                incr dropped;
                (* One trace record per injected fault: which link, when. *)
                if Tel.active () then
                  Tel.event "fault.drop"
                    Tel.Json.
                      [ ("round", Int round); ("src", Int u); ("dst", Int v) ]
              end
              else begin
                let copies =
                  if Faults.duplicates plan ~round ~src:u ~dst:v then begin
                    incr duplicated;
                    if Tel.active () then
                      Tel.event "fault.duplicate"
                        Tel.Json.
                          [ ("round", Int round); ("src", Int u); ("dst", Int v) ];
                    2
                  end
                  else 1
                in
                for _ = 1 to copies do
                  incr delivered;
                  payload_items := !payload_items + Knowledge.items snapshot.(u);
                  new_items :=
                    !new_items + Knowledge.merge ~into:state.(v) snapshot.(u)
                done;
                Knowledge.add_edge state.(v) id.(v) id.(u)
              end
            end)
          g v
    done
  done;
  let crashed = ref 0 and incomplete = ref 0 and fuel_exhausted = ref 0 in
  let outputs =
    Array.init n (fun v ->
        match crash_at.(v) with
        | Some r when r <= rounds ->
            incr crashed;
            if Tel.active () then
              Tel.event "fault.crash" Tel.Json.[ ("node", Int v); ("round", Int r) ];
            Unknown Crashed
        | Some _ | None ->
            if
              not
                (Knowledge.contains_ball state.(v) lg ~ids:id ~center:v
                   ~radius:alg.Algorithm.radius)
            then begin
              incr incomplete;
              Unknown Incomplete_view
            end
            else
              let view =
                Knowledge.reconstruct state.(v) ~center_id:id.(v)
                  ~radius:alg.Algorithm.radius
              in
              let burn = cost view in
              (match plan.Faults.fuel with
              | Some fuel when burn > fuel ->
                  incr fuel_exhausted;
                  Unknown Fuel_exhausted
              | Some _ | None -> (
                  (* (not C) allows arbitrary node behaviour: a decide
                     step that raises degrades to Unknown instead of
                     killing the run. *)
                  try Decided (alg.Algorithm.decide view)
                  with _ -> Unknown Decide_failed)))
  in
  ( outputs,
    {
      rounds;
      messages = !messages;
      delivered = !delivered;
      dropped = !dropped;
      duplicated = !duplicated;
      payload_items = !payload_items;
      new_items = !new_items;
      crashed = !crashed;
      incomplete = !incomplete;
      fuel_exhausted = !fuel_exhausted;
    } )

let run_outputs ~plan ?cost alg lg ~ids = fst (run ~plan ?cost alg lg ~ids)

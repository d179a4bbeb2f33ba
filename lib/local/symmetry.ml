open Locald_graph

type state = {
  my_id : int;
  succ_id : int;
  colour : int;
  pred_colour : int option;
  succ_colour : int option;
  round_no : int;
  cv_stable_at : int option;
  done_ : bool;
}

(* Lowest bit position where a and b differ (they are distinct). *)
let lowest_differing_bit a b =
  let x = a lxor b in
  let rec go i = if x land (1 lsl i) <> 0 then i else go (i + 1) in
  go 0

let cv_step ~colour ~succ_colour =
  let i = lowest_differing_bit colour succ_colour in
  (2 * i) + ((colour lsr i) land 1)

let cole_vishkin ~cv_rounds =
  {
    Protocol.proto_name = "cole-vishkin";
    init =
      (fun ~id ~degree ~input ->
        if degree <> 2 then invalid_arg "cole_vishkin: cycles only";
        {
          my_id = id;
          succ_id = input;
          colour = id;
          pred_colour = None;
          succ_colour = None;
          round_no = 0;
          cv_stable_at = None;
          done_ = false;
        });
    emit = (fun s -> (s.my_id, s.colour));
    halted = (fun s -> s.done_);
    round =
      (fun s ~received ->
        (* On a cycle the two messages are the successor's (matched by
           id) and, therefore, the predecessor's. *)
        let succ_colour =
          Array.to_list received
          |> List.find_map (fun (id, c) -> if id = s.succ_id then Some c else None)
        in
        let pred_colour =
          Array.to_list received
          |> List.find_map (fun (id, c) -> if id <> s.succ_id then Some c else None)
        in
        let succ_c = Option.get succ_colour in
        let pred_c = Option.get pred_colour in
        let round_no = s.round_no + 1 in
        if round_no <= cv_rounds then begin
          (* A bit-reduction iteration. *)
          let colour = cv_step ~colour:s.colour ~succ_colour:succ_c in
          let cv_stable_at =
            match s.cv_stable_at with
            | Some _ as x -> x
            | None -> if colour < 6 then Some round_no else None
          in
          { s with colour; cv_stable_at; round_no;
            pred_colour = Some pred_c; succ_colour = Some succ_c }
        end
        else begin
          (* Three scheduled shift-down rounds remove colours 5, 4, 3. *)
          let target = 5 - (round_no - cv_rounds - 1) in
          let colour =
            if s.colour = target then
              let forbidden = [ pred_c; succ_c ] in
              let rec pick c = if List.mem c forbidden then pick (c + 1) else c in
              pick 0
            else s.colour
          in
          let done_ = round_no >= cv_rounds + 3 in
          { s with colour; round_no; done_;
            pred_colour = Some pred_c; succ_colour = Some succ_c }
        end);
  }

let oriented_cycle_input ~n ~ids =
  Labelled.init (Gen.cycle n) (fun v -> Ids.assign ids ((v + 1) mod n))

let colours states = Array.map (fun s -> s.colour) states

let is_proper_colouring g cols ~k =
  Graph.fold_vertices
    (fun v acc ->
      acc && cols.(v) >= 0 && cols.(v) < k
      && Graph.for_all_neighbours (fun u -> cols.(u) <> cols.(v)) g v)
    g true

(* ------------------------------------------------------------------ *)
(* Luby's MIS                                                          *)
(* ------------------------------------------------------------------ *)

type mis_state = {
  mid : int;
  rng_seed : int;
  priority : int;
  status : [ `Active | `In_mis | `Out ];
  mis_rounds : int;
}

let draw ~seed ~id ~round = Hashtbl.hash (seed, id, round, "luby") land max_int

let luby_mis ~seed =
  {
    Protocol.proto_name = "luby-mis";
    init =
      (fun ~id ~degree:_ ~input:_ ->
        {
          mid = id;
          rng_seed = seed;
          priority = draw ~seed ~id ~round:0;
          status = `Active;
          mis_rounds = 0;
        });
    emit =
      (fun s ->
        ( s.mid,
          (match s.status with `Active -> s.priority | `In_mis | `Out -> -1),
          s.status = `In_mis ));
    halted = (fun s -> s.status <> `Active);
    round =
      (fun s ~received ->
        let round = s.mis_rounds + 1 in
        let next_priority = draw ~seed:s.rng_seed ~id:s.mid ~round in
        let neighbour_joined =
          Array.exists (fun (_, _, joined) -> joined) received
        in
        let status =
          if neighbour_joined then `Out
          else if
            (* Strict local maximum among still-active neighbours
               (ties arbitrated by identifiers). *)
            Array.for_all
              (fun (id, p, _) -> p < 0 || (s.priority, s.mid) > (p, id))
              received
          then `In_mis
          else `Active
        in
        { s with status; priority = next_priority; mis_rounds = round });
  }

let run_luby ~seed ~max_rounds g ~ids =
  let lg = Labelled.const g () in
  let states, outcome = Protocol.run ~max_rounds (luby_mis ~seed) lg ~ids in
  (Array.map (fun s -> if s.status = `In_mis then 1 else 0) states, outcome)

let run_on_cycle ?(cv_rounds = 12) ~n ~ids () =
  let lg = oriented_cycle_input ~n ~ids in
  let states, outcome =
    Protocol.run ~max_rounds:(cv_rounds + 4) (cole_vishkin ~cv_rounds) lg ~ids
  in
  let worst_stable =
    Array.fold_left
      (fun acc s -> max acc (Option.value ~default:max_int s.cv_stable_at))
      0 states
  in
  (colours states, outcome, worst_stable)

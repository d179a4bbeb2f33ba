open Locald_graph
module Tel = Locald_runtime.Telemetry

type config = { sched_seed : int; fifo : bool }

let default_config = { sched_seed = 0; fifo = false }

type delivery = { uid : int; src : int; dst : int }

(* splitmix64 avalanche: message priorities are a pure hash of
   (scheduler seed, message uid), so the adversary's choices are a
   function of the seed alone — replayable, and uncorrelated with the
   order the protocol happened to enqueue things. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let priority ~seed ~uid =
  mix64 (Int64.add (mix64 (Int64.of_int seed)) (Int64.of_int uid))

(* Item budgets already decremented for the hop: a message carries
   items at the budget they arrive with. *)
type 'a msg = {
  uid : int;
  src : int;
  dst : int;
  prio : int64;
  binds : (int * 'a * int) array;
  links : (int * int * int) array;
  mutable processed : bool;
}

(* Binary min-heap on (priority, uid). *)
module Heap = struct
  type 'a t = { mutable arr : 'a msg option array; mutable len : int }

  let create () = { arr = Array.make 8 None; len = 0 }

  let less a b =
    let c = Int64.compare a.prio b.prio in
    c < 0 || (c = 0 && a.uid < b.uid)

  let get h i = match h.arr.(i) with Some m -> m | None -> assert false

  let push h m =
    if h.len = Array.length h.arr then begin
      let bigger = Array.make (2 * h.len) None in
      Array.blit h.arr 0 bigger 0 h.len;
      h.arr <- bigger
    end;
    h.arr.(h.len) <- Some m;
    let i = ref h.len in
    h.len <- h.len + 1;
    while
      !i > 0
      &&
      let parent = (!i - 1) / 2 in
      less (get h !i) (get h parent)
    do
      let parent = (!i - 1) / 2 in
      let tmp = h.arr.(parent) in
      h.arr.(parent) <- h.arr.(!i);
      h.arr.(!i) <- tmp;
      i := parent
    done

  let pop h =
    if h.len = 0 then None
    else begin
      let top = get h 0 in
      h.len <- h.len - 1;
      h.arr.(0) <- h.arr.(h.len);
      h.arr.(h.len) <- None;
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.len && less (get h l) (get h !smallest) then smallest := l;
        if r < h.len && less (get h r) (get h !smallest) then smallest := r;
        if !smallest = !i then continue := false
        else begin
          let tmp = h.arr.(!smallest) in
          h.arr.(!smallest) <- h.arr.(!i);
          h.arr.(!i) <- tmp;
          i := !smallest
        end
      done;
      Some top
    end
end

(* Per-node protocol state: the (id -> label) bindings and id-keyed
   edges of Knowledge, each annotated with its current hop budget, plus
   the budget at which each item was last broadcast (so a batch only
   re-ships items whose reach genuinely grew). *)
type 'a node_state = {
  own_id : int;
  bind : (int, 'a) Hashtbl.t;
  bind_budget : (int, int) Hashtbl.t;
  bind_sent : (int, int) Hashtbl.t;
  link_budget : (int * int, int) Hashtbl.t;
  link_sent : (int * int, int) Hashtbl.t;
  mutable dirty_binds : int list;
  mutable dirty_links : (int * int) list;
  mutable dirty : bool;
}

let edge_key a b = if a < b then (a, b) else (b, a)

let sent_of tbl key =
  match Hashtbl.find_opt tbl key with Some b -> b | None -> min_int

let c_deliveries = Tel.Counter.make "async.deliveries"
let c_reorders = Tel.Counter.make "async.reorders"
let c_sends = Tel.Counter.make "async.sends"
let g_max_queue = Tel.Gauge.make "async.max_queue"

(* The whole engine is deterministic in (graph, ids, config):
   scheduler choices hash the seed, and all per-node iteration below is
   over freshly built tables whose operation sequence is itself
   deterministic. [sink] sees every delivery, in execution order. *)
let run_engine ~config ~radius ?sink lg ~id =
  let g = Labelled.graph lg in
  let n = Graph.order g in
  let seed = config.sched_seed in
  let st =
    Array.init n (fun v ->
        {
          own_id = id.(v);
          bind = Hashtbl.create 16;
          bind_budget = Hashtbl.create 16;
          bind_sent = Hashtbl.create 16;
          link_budget = Hashtbl.create 16;
          link_sent = Hashtbl.create 16;
          dirty_binds = [];
          dirty_links = [];
          dirty = false;
        })
  in
  let sends = ref 0 and deliveries = ref 0 and reorders = ref 0 in
  let pending = ref 0 and max_queue = ref 0 in
  let next_uid = ref 0 in
  let heap = Heap.create () in
  let fifo_q : (int * int, 'a msg Queue.t) Hashtbl.t = Hashtbl.create 64 in
  let order_q : 'a msg Queue.t = Queue.create () in
  let enqueue m =
    Queue.push m order_q;
    if config.fifo then begin
      let q =
        match Hashtbl.find_opt fifo_q (m.src, m.dst) with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace fifo_q (m.src, m.dst) q;
            q
      in
      (* Only a link's oldest message competes in the heap; the rest
         wait their turn in the link queue. *)
      let was_empty = Queue.is_empty q in
      Queue.push m q;
      if was_empty then Heap.push heap m
    end
    else Heap.push heap m;
    incr sends;
    incr pending;
    if !pending > !max_queue then max_queue := !pending
  in
  (* One send batch from [u] to every neighbour: the dirty items whose
     forwardable budget grew since they were last shipped, plus the
     label-closure escorts — [u]'s own binding in every message, and
     both endpoint bindings of every shipped edge. *)
  let send_batch u =
    let s = st.(u) in
    let bind_out : (int, int) Hashtbl.t = Hashtbl.create 8 in
    let consider_bind i =
      let b = Hashtbl.find s.bind_budget i in
      if b >= 1 && b > sent_of s.bind_sent i then Hashtbl.replace bind_out i b
    in
    let escort_bind i =
      if not (Hashtbl.mem bind_out i) then
        Hashtbl.replace bind_out i (Hashtbl.find s.bind_budget i)
    in
    let links_out = ref [] in
    List.iter
      (fun key ->
        let b = Hashtbl.find s.link_budget key in
        if b >= 1 && b > sent_of s.link_sent key then begin
          Hashtbl.replace s.link_sent key b;
          links_out := (key, b) :: !links_out
        end)
      s.dirty_links;
    List.iter consider_bind s.dirty_binds;
    escort_bind s.own_id;
    List.iter
      (fun ((a, b), _) ->
        escort_bind a;
        escort_bind b)
      !links_out;
    let binds =
      Hashtbl.fold (fun i b acc -> (i, b) :: acc) bind_out []
      |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      |> List.map (fun (i, b) ->
             if b > sent_of s.bind_sent i then Hashtbl.replace s.bind_sent i b;
             (i, Hashtbl.find s.bind i, b - 1))
      |> Array.of_list
    in
    let links =
      List.sort
        (fun (((a1, b1) : int * int), _) ((a2, b2), _) ->
          if a1 <> a2 then compare a1 a2 else compare b1 b2)
        !links_out
      |> List.map (fun ((a, b), bud) -> (a, b, bud - 1))
      |> Array.of_list
    in
    s.dirty_binds <- [];
    s.dirty_links <- [];
    s.dirty <- false;
    Graph.iter_neighbours
      (fun w ->
        let uid = !next_uid in
        incr next_uid;
        enqueue
          {
            uid;
            src = u;
            dst = w;
            prio = priority ~seed ~uid;
            binds;
            links;
            processed = false;
          })
      g u
  in
  let note_bind s i b =
    if b >= 1 && b > sent_of s.bind_sent i then begin
      s.dirty_binds <- i :: s.dirty_binds;
      s.dirty <- true
    end
  in
  let note_link s key b =
    if b >= 1 && b > sent_of s.link_sent key then begin
      s.dirty_links <- key :: s.dirty_links;
      s.dirty <- true
    end
  in
  (* Max-merge on budgets; bindings before edges, so the label-closure
     invariant of Knowledge holds at every point in time. *)
  let merge_msg v m =
    let s = st.(v) in
    Array.iter
      (fun (i, lab, b) ->
        match Hashtbl.find_opt s.bind_budget i with
        | None ->
            Hashtbl.replace s.bind i lab;
            Hashtbl.replace s.bind_budget i b;
            note_bind s i b
        | Some old when b > old ->
            Hashtbl.replace s.bind_budget i b;
            note_bind s i b
        | Some _ -> ())
      m.binds;
    Array.iter
      (fun (a, b, bud) ->
        let key = edge_key a b in
        match Hashtbl.find_opt s.link_budget key with
        | None ->
            Hashtbl.replace s.link_budget key bud;
            note_link s key bud
        | Some old when bud > old ->
            Hashtbl.replace s.link_budget key bud;
            note_link s key bud
        | Some _ -> ())
      m.links
  in
  (* First delivery over a link teaches the receiver the link itself,
     at fresh budget — the "t ± 1" rim-edge round of the synchronous
     engine, in asynchronous form. The sender's binding arrived in the
     same message (label closure), so the edge is never unbound. *)
  let discover_link v u =
    let s = st.(v) in
    let key = edge_key id.(v) id.(u) in
    match Hashtbl.find_opt s.link_budget key with
    | Some old when old >= radius -> ()
    | Some _ | None ->
        Hashtbl.replace s.link_budget key radius;
        note_link s key radius
  in
  let deliver m =
    m.processed <- true;
    if config.fifo then begin
      let q = Hashtbl.find fifo_q (m.src, m.dst) in
      (match Queue.pop q with
      | m' -> assert (m' == m)
      | exception Queue.Empty -> assert false);
      match Queue.peek_opt q with
      | Some next -> Heap.push heap next
      | None -> ()
    end;
    decr pending;
    incr deliveries;
    merge_msg m.dst m;
    discover_link m.dst m.src;
    (* A delivery reorders iff some older message is still pending:
       pop delivered messages off the uid-ordered queue, then compare
       against the oldest survivor. *)
    let rec drain () =
      match Queue.peek_opt order_q with
      | Some front when front.processed ->
          ignore (Queue.pop order_q);
          drain ()
      | _ -> ()
    in
    drain ();
    (match Queue.peek_opt order_q with
    | Some front when front.uid < m.uid -> incr reorders
    | _ -> ());
    (match sink with
    | Some f -> f ({ uid = m.uid; src = m.src; dst = m.dst } : delivery)
    | None -> ());
    if st.(m.dst).dirty then send_batch m.dst
  in
  (* Wake-up: everyone seeds and broadcasts its own binding before any
     delivery happens — the asynchronous round 1. *)
  for v = 0 to n - 1 do
    let s = st.(v) in
    Hashtbl.replace s.bind id.(v) (Labelled.label lg v);
    Hashtbl.replace s.bind_budget id.(v) radius;
    send_batch v
  done;
  let continue = ref true in
  while !continue do
    match Heap.pop heap with
    | None -> continue := false
    | Some m -> Tel.span "sched.step" (fun () -> deliver m)
  done;
  Tel.Counter.add c_sends !sends;
  Tel.Counter.add c_deliveries !deliveries;
  Tel.Counter.add c_reorders !reorders;
  Tel.Gauge.max_to g_max_queue (float_of_int !max_queue);
  st

let knowledge_of s =
  let k = Knowledge.create () in
  Hashtbl.iter (fun i lab -> Knowledge.add_node k i lab) s.bind;
  Hashtbl.iter (fun (a, b) _ -> Knowledge.add_edge k a b) s.link_budget;
  k

(* Fault-free flooding provably assembles every ball; failing here is
   an engine bug. *)
let reconstruct st lg ~id ~radius v =
  let k = knowledge_of st.(v) in
  if not (Knowledge.contains_ball k lg ~ids:id ~center:v ~radius) then
    invalid_arg "Async_runner: incomplete ball on a fault-free run";
  Knowledge.reconstruct k ~center_id:id.(v) ~radius

let run_decide ~config ?sink alg lg ~ids =
  Ids.check_size ~n:(Labelled.order lg) ids;
  Tel.span "async.run" @@ fun () ->
  let id = Ids.to_array ids in
  let radius = alg.Algorithm.radius in
  let st = run_engine ~config ~radius ?sink lg ~id in
  Array.init (Array.length id) (fun v ->
      Algorithm.named_decide alg (reconstruct st lg ~id ~radius v))

let run ?(config = default_config) alg lg ~ids = run_decide ~config alg lg ~ids

let run_trace ?(config = default_config) alg lg ~ids =
  let trace = ref [] in
  let sink d = trace := d :: !trace in
  let outputs = run_decide ~config ~sink alg lg ~ids in
  (outputs, List.rev !trace)

let assemble_views ?(config = default_config) ~radius lg =
  Tel.span "async.assemble" @@ fun () ->
  let n = Labelled.order lg in
  let id = Array.init n Fun.id in
  let st = run_engine ~config ~radius lg ~id in
  Array.init n (fun v ->
      (* Identity ids sort like global indices, so the reconstruction
         is representation-identical to [View.extract_mapped] — its id
         decoration is the ball-to-global map itself. *)
      let view = reconstruct st lg ~id ~radius v in
      match View.ids view with
      | Some back -> (View.strip_ids view, back)
      | None -> assert false)

type 'a t = {
  center : int;
  radius : int;
  graph : Graph.t;
  labels : 'a array;
  ids : int array option;
}

exception No_ids of string

let invalid fmt = Format.kasprintf (fun s -> raise (Graph.Invalid_graph s)) fmt

let check_ids n = function
  | None -> ()
  | Some (ids : int array) ->
      if Array.length ids <> n then
        invalid "view: %d ids for %d nodes" (Array.length ids) n;
      (* Injectivity by sort + adjacent comparison: views are small and
         this check sits on the per-assignment hot path, so avoid the
         hashing and allocation of a table. Restrictions of monotone
         assignments arrive already strictly increasing — detect that
         in the scan for negative ids and skip the sort (injectivity is
         then free). *)
      let increasing = ref true in
      for i = 0 to n - 1 do
        if ids.(i) < 0 then invalid "view: negative identifier %d" ids.(i);
        if i > 0 && ids.(i - 1) >= ids.(i) then increasing := false
      done;
      if not !increasing then begin
        let sorted = Array.copy ids in
        Array.sort
          (fun (a : int) b -> if a < b then -1 else if a > b then 1 else 0)
          sorted;
        for i = 1 to n - 1 do
          if sorted.(i) = sorted.(i - 1) then
            invalid "view: duplicate identifier %d" sorted.(i)
        done
      end

(* ------------------------------------------------------------------ *)
(* Access monitoring                                                   *)
(* ------------------------------------------------------------------ *)

type access =
  | Id_read of { node : int; depth : int; id : int; input : bool }
  | Ids_read of { input : bool }
  | Label_read of { node : int; depth : int }
  | Structure_read of { node : int option; depth : int }

type monitor = {
  input_ids : int array -> bool;
  emit : access -> unit;
}

(* The installed monitor plus a one-slot distance memo: access events
   need the accessed node's distance from the centre, and the common
   case is a burst of reads against one view (and its strip/reassign
   derivatives, which share the graph and centre physically). *)
type installed = {
  mon : monitor;
  mutable memo_graph : Graph.t option;
  mutable memo_center : int;
  mutable memo_dist : int array;
}

let monitor_slot : installed option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

(* On every cached decide: a match, not a polymorphic comparison. *)
let monitored () =
  match !(Domain.DLS.get monitor_slot) with Some _ -> true | None -> false

let with_monitor mon f =
  let slot = Domain.DLS.get monitor_slot in
  let previous = !slot in
  slot :=
    Some { mon; memo_graph = None; memo_center = -1; memo_dist = [||] };
  Fun.protect ~finally:(fun () -> slot := previous) f

let depth_of inst view v =
  if v = view.center then 0
  else
  let fresh =
    match inst.memo_graph with
    | Some g -> not (g == view.graph && inst.memo_center = view.center)
    | None -> true
  in
  if fresh then begin
    inst.memo_graph <- Some view.graph;
    inst.memo_center <- view.center;
    inst.memo_dist <- Graph.bfs_distances view.graph view.center
  end;
  inst.memo_dist.(v)

(* Each reporter looks at the monitor slot before it builds anything:
   with no monitor installed an accessor allocates nothing. *)
let note_id view v ids =
  match !(Domain.DLS.get monitor_slot) with
  | None -> ()
  | Some inst ->
      inst.mon.emit
        (Id_read
           {
             node = v;
             depth = depth_of inst view v;
             id = ids.(v);
             input = inst.mon.input_ids ids;
           })

let note_ids ids =
  match !(Domain.DLS.get monitor_slot) with
  | None -> ()
  | Some inst -> inst.mon.emit (Ids_read { input = inst.mon.input_ids ids })

let note_label view v =
  match !(Domain.DLS.get monitor_slot) with
  | None -> ()
  | Some inst ->
      inst.mon.emit (Label_read { node = v; depth = depth_of inst view v })

(* A read of node [v]'s adjacency, or of the whole view's shape when
   [v] is negative. *)
let note_structure view v =
  match !(Domain.DLS.get monitor_slot) with
  | None -> ()
  | Some inst ->
      inst.mon.emit
        (if v < 0 then Structure_read { node = None; depth = 0 }
         else Structure_read { node = Some v; depth = depth_of inst view v })

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

(* Ball extractions performed so far, across all domains. The hoisted
   decider paths (Runner.prepare) are specified by "per-assignment work
   does not extract views", and the counter is what lets a test pin
   that. *)
let extractions = Atomic.make 0

let extraction_count () = Atomic.get extractions

let check_ids_length ?ids lg =
  match ids with
  | Some ids when Array.length ids <> Labelled.order lg ->
      invalid "view: %d ids for %d nodes" (Array.length ids) (Labelled.order lg)
  | Some _ | None -> ()

(* A borrowed view of a ball of more than [lend_above] nodes takes its
   label and id arrays from its lender: an array of more than 256 words
   (Max_young_wosize) is allocated in the major heap, which a fresh
   pair per probe would fill. Smaller balls get fresh copies, which die
   young. A shelf keeps at most [spare_cap] arrays, the most recently
   returned first: each G(M,1) that certify sweeps has five distinct ball
   sizes above 256. *)
let lend_above = 256
let spare_cap = 8

type 'b shelf = { lock : Mutex.t; mutable spares : 'b array list }

type 'a lender = { lent_labels : 'a shelf; lent_ids : int shelf }

let shelf () = { lock = Mutex.create (); spares = [] }
let lender () = { lent_labels = shelf (); lent_ids = shelf () }

let take shelf k =
  Mutex.protect shelf.lock (fun () ->
      match List.find_opt (fun a -> Array.length a = k) shelf.spares with
      | Some a as found ->
          shelf.spares <- List.filter (( != ) a) shelf.spares;
          found
      | None -> None)

let give_back shelf a =
  if Array.length a > lend_above then
    Mutex.protect shelf.lock (fun () ->
        shelf.spares <- List.filteri (fun i _ -> i < spare_cap) (a :: shelf.spares))

(* The view on an extracted ball: labels and ids restricted to
   [back.(0 .. k-1)], in spares of [lender] when it has them, else in
   fresh arrays. A label store goes through the write barrier, but
   consecutive big balls mostly hold the same label at the same index,
   so stores of the value already there are skipped. Injectivity is
   validated on the restriction only: global injectivity is the input
   assignment's own invariant (enforced by Ids.of_array), and an O(n)
   check here would make whole-graph runs quadratic. *)
let assemble lender ?ids lg ~radius sub back center =
  Atomic.incr extractions;
  let k = Graph.order sub in
  let array_for shelf x =
    match lender with
    | Some l when k > lend_above -> (
        match take (shelf l) k with Some a -> a | None -> Array.make k x)
    | Some _ | None -> Array.make k x
  in
  let all_labels = Labelled.labels lg in
  let labels = array_for (fun l -> l.lent_labels) all_labels.(back.(0)) in
  for i = 0 to k - 1 do
    let x = all_labels.(back.(i)) in
    if labels.(i) != x then labels.(i) <- x
  done;
  let ids =
    Option.map
      (fun (ids : int array) ->
        let restricted = array_for (fun l -> l.lent_ids) 0 in
        for i = 0 to k - 1 do
          restricted.(i) <- ids.(back.(i))
        done;
        restricted)
      ids
  in
  check_ids k ids;
  { center; radius; graph = sub; labels; ids }

let extract_mapped ?ids lg ~center ~radius =
  check_ids_length ?ids lg;
  let sub, back, c = Graph.extract_ball (Labelled.graph lg) ~center ~radius in
  (assemble None ?ids lg ~radius sub back c, back)

let extract ?ids lg ~center ~radius = fst (extract_mapped ?ids lg ~center ~radius)

let with_extract lender ?ids lg ~center ~radius f =
  check_ids_length ?ids lg;
  Graph.with_ball (Labelled.graph lg) ~center ~radius (fun sub back c ->
      let view = assemble (Some lender) ?ids lg ~radius sub back c in
      Fun.protect
        ~finally:(fun () ->
          give_back lender.lent_labels view.labels;
          Option.iter (give_back lender.lent_ids) view.ids)
        (fun () -> f view))

let of_parts ?ids ~center ~radius lg =
  let g = Labelled.graph lg in
  if center < 0 || center >= Graph.order g then
    invalid "view: centre %d out of range" center;
  check_ids (Graph.order g) ids;
  let d = Graph.bfs_distances g center in
  Array.iter
    (fun x ->
      if x > radius then invalid "view: node beyond the stated radius %d" radius)
    d;
  { center; radius; graph = g; labels = Labelled.labels lg; ids }

let strip_ids view = { view with ids = None }

(* ------------------------------------------------------------------ *)
(* Instrumented accessors                                              *)
(* ------------------------------------------------------------------ *)

let order view =
  note_structure view (-1);
  Graph.order view.graph

let center_label view =
  note_label view view.center;
  view.labels.(view.center)

let center_id view =
  match view.ids with
  | None -> raise (No_ids "View.center_id: the view carries no identifiers")
  | Some ids ->
      note_id view view.center ids;
      ids.(view.center)

let id view v =
  if v < 0 || v >= Graph.order view.graph then
    invalid_arg (Printf.sprintf "View.id: node %d out of range" v);
  match view.ids with
  | None -> raise (No_ids "View.id: the view carries no identifiers")
  | Some ids ->
      note_id view v ids;
      ids.(v)

let ids view =
  (match view.ids with Some a -> note_ids a | None -> ());
  view.ids

let label view v =
  if v < 0 || v >= Graph.order view.graph then
    invalid_arg (Printf.sprintf "View.label: node %d out of range" v);
  note_label view v;
  view.labels.(v)

let neighbours view v =
  note_structure view v;
  Graph.neighbours view.graph v

let degree view v =
  note_structure view v;
  Graph.degree view.graph v

let dist_from_center view =
  note_structure view (-1);
  Graph.bfs_distances view.graph view.center

(* ------------------------------------------------------------------ *)
(* Transformations                                                     *)
(* ------------------------------------------------------------------ *)

let map_labels f view = { view with labels = Array.map f view.labels }

let mapi_labels f view =
  { view with labels = Array.init (Array.length view.labels) (fun i -> f i view.labels.(i)) }

let reassign_ids view ids =
  check_ids (Graph.order view.graph) (Some ids);
  { view with ids = Some ids }

(* Structural digest of the decorated view — centre, radius, adjacency,
   labels (through the caller's label hash) and the id decoration when
   present. This is deliberately NOT an isomorphism invariant: it is the
   hash side of {!equal_repr}, for memo tables keyed by concrete
   decorated views. Its id reads, like [equal_repr]'s and [pp]'s, are
   reported as bulk reads: a decide that digests, compares or prints
   its view depends on every id, and the read-adaptive decide cache
   and the certifier must see that. Structure and label reads are not
   reported. *)
let fingerprint hash_label view =
  let h = ref 0x9e3779b9 in
  let mix x = h := ((!h * 131) + x) land max_int in
  mix view.center;
  mix view.radius;
  let g = view.graph in
  mix (Graph.order g);
  for v = 0 to Graph.order g - 1 do
    mix (Graph.degree g v);
    Graph.iter_neighbours mix g v
  done;
  Array.iter (fun l -> mix (hash_label l)) view.labels;
  (match ids view with
  | None -> mix 0
  | Some ids ->
      mix 1;
      Array.iter mix ids);
  !h

let equal_ids a b =
  match (a.ids, b.ids) with
  | Some x, Some y ->
      note_ids x;
      note_ids y;
      x = y
  | None, None -> true
  | Some _, None | None, Some _ -> false

let equal_repr eq a b =
  a.center = b.center && a.radius = b.radius
  && Graph.equal a.graph b.graph
  && Array.for_all2 eq a.labels b.labels
  && equal_ids a b

let pp pp_label ppf view =
  Format.fprintf ppf "@[<v 2>view(centre=%d, radius=%d) %a" view.center
    view.radius Graph.pp view.graph;
  let ids = ids view in
  Array.iteri
    (fun v x ->
      Format.fprintf ppf "@ x(%d)=%a%t" v pp_label x (fun ppf ->
          match ids with
          | Some ids -> Format.fprintf ppf " id=%d" ids.(v)
          | None -> ()))
    view.labels;
  Format.fprintf ppf "@]"

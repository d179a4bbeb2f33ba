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
  | Some ids ->
      if Array.length ids <> n then
        invalid "view: %d ids for %d nodes" (Array.length ids) n;
      Array.iter
        (fun id -> if id < 0 then invalid "view: negative identifier %d" id)
        ids;
      (* Injectivity by sort + adjacent comparison: views are small and
         this check sits on the per-assignment hot path, so avoid the
         hashing and allocation of a table. Restrictions of monotone
         assignments arrive already strictly increasing — detect that
         with one scan and skip the sort (injectivity is then free). *)
      let increasing = ref true in
      for i = 1 to n - 1 do
        if ids.(i - 1) >= ids.(i) then increasing := false
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

let monitored () = !(Domain.DLS.get monitor_slot) <> None

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

let[@inline] note view make =
  match !(Domain.DLS.get monitor_slot) with
  | None -> ()
  | Some inst -> inst.mon.emit (make inst view)

let note_id view v ids =
  note view (fun inst view ->
      Id_read
        {
          node = v;
          depth = depth_of inst view v;
          id = ids.(v);
          input = inst.mon.input_ids ids;
        })

let note_ids _view ids =
  note _view (fun inst _ -> Ids_read { input = inst.mon.input_ids ids })

let note_label view v =
  note view (fun inst view -> Label_read { node = v; depth = depth_of inst view v })

let note_structure view v =
  note view (fun inst view ->
      match v with
      | None -> Structure_read { node = None; depth = 0 }
      | Some v -> Structure_read { node = Some v; depth = depth_of inst view v })

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

(* The view on an extracted ball: labels and ids restricted to
   [back.(0 .. k-1)], each a fresh array even when the ball is
   borrowed. Injectivity is validated on the restriction only: global
   injectivity is the input assignment's own invariant (enforced by
   Ids.of_array), and an O(n) check here would make whole-graph runs
   quadratic. *)
let assemble ?ids lg ~radius sub back center =
  Atomic.incr extractions;
  let k = Graph.order sub in
  let all_labels = Labelled.labels lg in
  let labels = Array.init k (fun i -> all_labels.(back.(i))) in
  let ids = Option.map (fun ids -> Array.init k (fun i -> ids.(back.(i)))) ids in
  check_ids k ids;
  { center; radius; graph = sub; labels; ids }

let extract_mapped ?ids lg ~center ~radius =
  check_ids_length ?ids lg;
  let sub, back, c = Graph.extract_ball (Labelled.graph lg) ~center ~radius in
  (assemble ?ids lg ~radius sub back c, back)

let extract ?ids lg ~center ~radius = fst (extract_mapped ?ids lg ~center ~radius)

let with_extract ?ids lg ~center ~radius f =
  check_ids_length ?ids lg;
  Graph.with_ball (Labelled.graph lg) ~center ~radius (fun sub back c ->
      f (assemble ?ids lg ~radius sub back c))

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
  note_structure view None;
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
  (match view.ids with Some a -> note_ids view a | None -> ());
  view.ids

let has_ids view = view.ids <> None

let label view v =
  if v < 0 || v >= Graph.order view.graph then
    invalid_arg (Printf.sprintf "View.label: node %d out of range" v);
  note_label view v;
  view.labels.(v)

let neighbours view v =
  note_structure view (Some v);
  Graph.neighbours view.graph v

let degree view v =
  note_structure view (Some v);
  Graph.degree view.graph v

let dist_from_center view =
  note_structure view None;
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
   decorated views. Reads go through the raw fields (we are the module
   that owns them), so computing a fingerprint never registers as an
   algorithm access. *)
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
  (match view.ids with
  | None -> mix 0
  | Some ids ->
      mix 1;
      Array.iter mix ids);
  !h

let equal_repr eq a b =
  a.center = b.center && a.radius = b.radius
  && Graph.equal a.graph b.graph
  && Array.for_all2 eq a.labels b.labels
  && a.ids = b.ids

let pp pp_label ppf view =
  Format.fprintf ppf "@[<v 2>view(centre=%d, radius=%d) %a" view.center
    view.radius Graph.pp view.graph;
  Array.iteri
    (fun v x ->
      Format.fprintf ppf "@ x(%d)=%a%t" v pp_label x (fun ppf ->
          match view.ids with
          | Some ids -> Format.fprintf ppf " id=%d" ids.(v)
          | None -> ()))
    view.labels;
  Format.fprintf ppf "@]"

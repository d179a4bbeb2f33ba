(* The traced run's own spans: one per call the benchmark makes into a
   layer, kept in memory with the process's GC counters at both ends,
   and the per-layer table printed from them. The library's own spans
   arrive separately, as histogram sums read back from its telemetry. *)

type span = {
  id : int;
  parent : int option;
  name : string;
  t0 : float;
  t1 : float;
  minor_words : float;     (* allocated on the minor heaps *)
  promoted_words : float;  (* survived into the major heap *)
  minor_gcs : int;
  major_gcs : int;
}

type t = {
  mutable next : int;
  mutable stack : int list;  (* open spans, innermost first *)
  mutable closed : span list;
}

let create () = { next = 0; stack = []; closed = [] }

(* Spans nest through the recorder's stack: the benchmark drives the
   layers from one domain, so the stack is exact. *)
let span t name f =
  let id = t.next in
  t.next <- id + 1;
  let parent = match t.stack with p :: _ -> Some p | [] -> None in
  t.stack <- id :: t.stack;
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let t0 = Locald_runtime.Timing.now () in
  let finish () =
    let t1 = Locald_runtime.Timing.now () in
    let g1 = Gc.quick_stat () and w1 = Gc.minor_words () in
    t.stack <- List.filter (( <> ) id) t.stack;
    t.closed <-
      {
        id;
        parent;
        name;
        t0;
        t1;
        (* [quick_stat] sums every domain but counts a domain's
           allocation only once its minor heap is collected;
           [minor_words] is exact for the calling domain alone. *)
        minor_words =
          Float.max (g1.Gc.minor_words -. g0.Gc.minor_words) (w1 -. w0);
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        minor_gcs = g1.Gc.minor_collections - g0.Gc.minor_collections;
        major_gcs = g1.Gc.major_collections - g0.Gc.major_collections;
      }
      :: t.closed
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.closed

let duration s = s.t1 -. s.t0

(* Total length of the union of [intervals], clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> ( match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
        match cur with
        | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
        | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest
        | None -> go acc (Some (a, b)) rest)
  in
  go 0. None clipped

(* A span's self time: its duration minus the part of its interval
   that its direct children cover. Overlapping children count once. *)
let self_time all s =
  let kids =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.t0, c.t1) else None)
      all
  in
  duration s -. covered ~lo:s.t0 ~hi:s.t1 kids

let find all name = List.find_opt (fun s -> s.name = name) all

(* ------------------------------------------------------------------ *)
(* The per-layer table                                                 *)
(* ------------------------------------------------------------------ *)

type row = {
  layer : string;          (* the library module the row attributes to *)
  what : string;           (* the call or span measured *)
  self_s : float option;   (* self time, seconds *)
  share : float option;    (* self time over the reference time *)
  alloc_mw : float option; (* minor-heap words allocated, millions *)
  count : int option;      (* work done, in the row's own unit *)
}

let row ?self_s ?share ?alloc_mw ?count layer what =
  { layer; what; self_s; share; alloc_mw; count }

(* A row for one of the benchmark's own spans, its share taken of
   [reference] seconds. *)
let span_row ?count all ~reference ~layer s =
  let self = self_time all s in
  row ~self_s:self ~share:(self /. reference)
    ~alloc_mw:(s.minor_words /. 1e6) ?count layer s.name

let print_table oc ~title ~reference_label rows =
  let opt f = function Some x -> f x | None -> "-" in
  Printf.fprintf oc "%s\n" title;
  Printf.fprintf oc "  %-20s %-38s %11s %9s %10s %11s\n" "layer" "measured"
    "self_s" reference_label "alloc_Mw" "count";
  List.iter
    (fun r ->
      Printf.fprintf oc "  %-20s %-38s %11s %9s %10s %11s\n" r.layer r.what
        (opt (Printf.sprintf "%.6f") r.self_s)
        (opt (fun x -> Printf.sprintf "%.1f%%" (100. *. x)) r.share)
        (opt (Printf.sprintf "%.3f") r.alloc_mw)
        (opt string_of_int r.count))
    rows

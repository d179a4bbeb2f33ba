open Locald_graph

let check_order order ids =
  if Ids.size ids <> order then
    raise
      (Ids.Invalid_ids
         (Printf.sprintf "%d ids for a %d-node graph" (Ids.size ids) order))

let check_size lg ids = check_order (Labelled.order lg) ids

(* Attribute a [View.No_ids] escape to the algorithm that raised it:
   the accessor alone cannot know which algorithm was running. *)
let named name decide view =
  try decide view with View.No_ids msg -> raise (View.No_ids (name ^ ": " ^ msg))

let named_decide (alg : ('a, 'o) Algorithm.t) view =
  named alg.Algorithm.name alg.Algorithm.decide view

let run ?(backend = Backend.Sync) alg lg ~ids =
  match backend with
  | Backend.Async config -> Async_runner.run ~config alg lg ~ids
  | Backend.Sync ->
      check_size lg ids;
      let ids = Ids.to_array ids in
      Array.init (Labelled.order lg) (fun v ->
          named_decide alg (View.extract ~ids lg ~center:v ~radius:alg.radius))

(* Pre-extracted balls for the id-quantifying deciders: the ball
   structure of node [v] does not depend on the id assignment, only the
   id decoration does, so extracting once and re-decorating per
   assignment turns the per-assignment cost from O(ball extraction)
   into O(view order). *)

type ('a, 'o) prepared = {
  p_alg : ('a, 'o) Algorithm.t;
  p_order : int;
  p_views : ('a View.t * int array) array;
  p_mode : Locald_runtime.Memo.mode;
  p_memo : (int * int array, 'o) Locald_runtime.Memo.t option;
}

(* Each call is one ball-restricted decide — the unit both the naive
   tally and the quotient scans are billed in. *)
let c_decides = Locald_runtime.Telemetry.Counter.make "runner.decides"

(* Scratch-pool effectiveness, bridged from the extractor's cumulative
   process-wide counters into the current telemetry run: after the
   first extraction on a worker, every further ball should reuse that
   worker's BFS scratch rather than reallocate. The bridge runs once
   per [prepare] (not per ball), so the run-lock cost of the gauges
   stays off the hot path. *)
let g_scratch_reuses = Locald_runtime.Telemetry.Gauge.make "view.scratch_reuses"
let g_scratch_allocs = Locald_runtime.Telemetry.Gauge.make "view.scratch_allocs"

let last_scratch_reuses = Atomic.make 0
let last_scratch_allocs = Atomic.make 0

let sync_scratch_gauges () =
  let cur = Graph.scratch_reuses () in
  let delta = cur - Atomic.exchange last_scratch_reuses cur in
  Locald_runtime.Telemetry.Gauge.add g_scratch_reuses (float_of_int delta);
  let cur = Graph.scratch_allocs () in
  let delta = cur - Atomic.exchange last_scratch_allocs cur in
  Locald_runtime.Telemetry.Gauge.add g_scratch_allocs (float_of_int delta)

let prepare ?(memo = Locald_runtime.Memo.Off) ?memo_capacity
    ?(backend = Backend.Sync) alg lg =
  Locald_runtime.Telemetry.span "runner.prepare" @@ fun () ->
  Fun.protect ~finally:sync_scratch_gauges @@ fun () ->
  {
    p_alg = alg;
    p_order = Labelled.order lg;
    p_views =
      (* Both backends produce representation-identical (view, back)
         pairs (pinned by test_async), so everything downstream —
         re-decoration, memo keys, quotient scans — is agnostic. *)
      (match backend with
      | Backend.Sync ->
          Array.init (Labelled.order lg) (fun v ->
              View.extract_mapped lg ~center:v ~radius:alg.Algorithm.radius)
      | Backend.Async config ->
          Async_runner.assemble_views ~config ~radius:alg.Algorithm.radius lg);
    p_mode = memo;
    p_memo =
      (match memo with
      | Locald_runtime.Memo.Off -> None
      | Exact_ids | Order_type ->
          Some (Locald_runtime.Memo.create_node_ids ?capacity:memo_capacity ()));
  }

let prepared_size prep = prep.p_order

let ball_of prep v = snd prep.p_views.(v)

(* Decide node [v] under the ball-restricted assignment [r] (view-local
   order: [r.(i)] decorates view node [i]). This is the memoisation
   point: by the locality correspondence the output is a function of
   (node, restriction), so under [Exact_ids] that pair is the key;
   under [Order_type] the restriction is first collapsed to its rank
   pattern — sound only for order-invariant deciders, which is why the
   mode is opt-in at [prepare]. [r] must be fresh (the table keeps it as
   the stored key). *)
let decide_restricted ?(memoise = true) prep v r =
  Locald_runtime.Telemetry.Counter.incr c_decides;
  let view, _ = prep.p_views.(v) in
  let compute () = named_decide prep.p_alg (View.reassign_ids view r) in
  match prep.p_memo with
  | Some tbl when memoise ->
      let key_ids =
        match prep.p_mode with
        | Locald_runtime.Memo.Order_type -> Iso.order_type r
        | Off | Exact_ids -> r
      in
      Locald_runtime.Memo.find_or_compute tbl (v, key_ids) compute
  | Some _ | None -> compute ()

(* Read-adaptive decide cache for the quotient scans.

   A pure decide's control flow on a fixed ball can depend on the id
   decoration only through the id values it actually reads — and the
   access monitor (the obliviousness certifier's instrument) tells us
   exactly which slots those are. So: run the decide once under a
   recording monitor, and for every later restriction that agrees with
   a recorded execution on all the slots that execution read, reuse its
   output without running anything. The cache is a decision trie:
   each internal node branches on one view-local id slot (the next slot
   the decide read), each leaf stores an output. Agreement is checked
   slot by slot, so adaptive reads (which id a decide looks at next
   depending on what it saw) are handled exactly.

   For deciders that read few ids — e.g. a structural verifier
   conjoined with one centre-id comparison — this collapses a scan of
   [perm bound k] restrictions to a handful of real decides plus a
   trie walk per restriction.

   Soundness needs decides to be pure functions of their view (the
   same contract as the decide-once memo; an impure decide can
   disagree with its own cached behaviour). Two defensive degradations:
   a bulk [View.ids] read (the whole array at once) or an inconsistent
   replay (impurity surfacing as a read-sequence mismatch) marks the
   scanner opaque — every later restriction is decided directly. A
   scanner is single-domain state for one sequential scan; it must not
   be shared across domains, and it is not created while an outer
   monitor is installed (tracing would observe the cache, not the
   decide). *)
type 'o trie =
  | Leaf of 'o
  | Branch of { slot : int; children : (int, 'o trie) Hashtbl.t }

let restriction_scanner prep v =
  let view, back = prep.p_views.(v) in
  let k = Array.length back in
  let plain r = named_decide prep.p_alg (View.reassign_ids view r) in
  let root : 'o trie option ref = ref None in
  let opaque = ref (View.monitored ()) in
  let seen = Array.make (max k 1) false in
  let decide_traced r =
    let reads = ref [] in
    Array.fill seen 0 k false;
    let bulk = ref false in
    let mon =
      {
        View.input_ids = (fun _ -> false);
        emit =
          (function
          | View.Id_read { node; _ } ->
              if node < k && not seen.(node) then begin
                seen.(node) <- true;
                reads := node :: !reads
              end
          | View.Ids_read _ -> bulk := true
          | View.Label_read _ | View.Structure_read _ -> ());
      }
    in
    let out = View.with_monitor mon (fun () -> plain r) in
    (out, List.rev !reads, !bulk)
  in
  let rec build o (r : int array) = function
    | [] -> Leaf o
    | s :: rest ->
        let children = Hashtbl.create 8 in
        Hashtbl.replace children r.(s) (build o r rest);
        Branch { slot = s; children }
  in
  let rec walk t (r : int array) =
    match t with
    | Leaf o -> Some o
    | Branch b -> (
        match Hashtbl.find_opt b.children r.(b.slot) with
        | Some child -> walk child r
        | None -> None)
  in
  (* Merge a freshly traced execution into the trie. By purity the new
     execution reads the same slots as any recorded one until a read
     value differs, so the paths coincide down to the insertion point;
     anything else is impurity and degrades to direct decides. *)
  let rec graft t o (r : int array) reads =
    match (t, reads) with
    | Leaf _, _ | Branch _, [] -> opaque := true
    | Branch b, s :: rest ->
        if s <> b.slot then opaque := true
        else (
          match Hashtbl.find_opt b.children r.(s) with
          | Some child -> graft child o r rest
          | None -> Hashtbl.replace b.children r.(s) (build o r rest))
  in
  fun r ->
    Locald_runtime.Telemetry.Counter.incr c_decides;
    if !opaque then plain r
    else
      let cached = match !root with None -> None | Some t -> walk t r in
      match cached with
      | Some o ->
          Locald_runtime.Memo.note_hit ();
          o
      | None ->
          Locald_runtime.Memo.note_miss ();
          let o, reads, bulk = decide_traced r in
          if bulk then opaque := true
          else begin
            Locald_runtime.Memo.note_distinct ();
            match !root with
            | None -> root := Some (build o r reads)
            | Some t -> graft t o r reads
          end;
          o

let run_prepared prep ~ids =
  check_order prep.p_order ids;
  let ids = Ids.to_array ids in
  Locald_runtime.Telemetry.span "runner.run_prepared" @@ fun () ->
  Array.mapi
    (fun v (_, back) ->
      decide_restricted prep v (Array.map (fun u -> ids.(u)) back))
    prep.p_views

let run_oblivious ob lg =
  Array.init (Labelled.order lg) (fun v ->
      named ob.Algorithm.ob_name ob.Algorithm.ob_decide
        (View.extract lg ~center:v ~radius:ob.Algorithm.ob_radius))

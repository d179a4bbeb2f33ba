open Locald_graph

let run ?(backend = Backend.Sync) alg lg ~ids =
  match backend with
  | Backend.Async config -> Async_runner.run ~config alg lg ~ids
  | Backend.Sync ->
      Ids.check_size ~n:(Labelled.order lg) ids;
      let ids = Ids.to_array ids in
      Array.init (Labelled.order lg) (fun v ->
          Algorithm.named_decide alg
            (View.extract ~ids lg ~center:v ~radius:alg.radius))

(* Pre-extracted balls for the id-quantifying deciders: the ball
   structure of node [v] does not depend on the id assignment, only the
   id decoration does, so extracting once and re-decorating per
   assignment turns the per-assignment cost from O(ball extraction)
   into O(view order). *)

type ('a, 'o) prepared = {
  p_alg : ('a, 'o) Algorithm.t;
  p_order : int;
  p_views : ('a View.t * int array) array;
  p_cache : 'o Locald_runtime.Memo.Trie.t;
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

let prepare ?memo_capacity ?(backend = Backend.Sync) alg lg =
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
    p_cache =
      Locald_runtime.Memo.Trie.create ?capacity:memo_capacity
        (Labelled.order lg);
  }

let ball_of prep v = snd prep.p_views.(v)

(* Per-task decide state. The decide paths — a range task, one
   sampled assignment, a quotient scan — run many decides on one
   domain, so they fill one scratch restriction per node and count
   their decides, cache hits and cache misses here, adding them to the
   run's counters once at [flush]. No decide writes a shared cell on
   a hit. *)
type ('a, 'o) task = {
  k_prep : ('a, 'o) prepared;
  k_rs : int array array;  (* node [v]'s restriction, sized by its ball *)
  mutable k_decides : int;
  mutable k_hits : int;
  mutable k_misses : int;
}

let task prep =
  {
    k_prep = prep;
    k_rs =
      Array.map
        (fun (_, back) -> Array.make (Array.length back) 0)
        prep.p_views;
    k_decides = 0;
    k_hits = 0;
    k_misses = 0;
  }

let flush task =
  Locald_runtime.Telemetry.Counter.add c_decides task.k_decides;
  Locald_runtime.Memo.note_hits task.k_hits;
  Locald_runtime.Memo.note_misses task.k_misses;
  task.k_decides <- 0;
  task.k_hits <- 0;
  task.k_misses <- 0

(* Node [v]'s decide on the restriction [r], which the view keeps. *)
let decide_view prep v r =
  let view, _ = prep.p_views.(v) in
  Algorithm.named_decide prep.p_alg (View.reassign_ids view r)

(* A miss: decide [v] on a copy of [r] under a monitor that records
   the slots the decide reads from that copy, in first-read order (a
   bulk read takes every slot not yet read, in index order), then
   store the output along those slots. Reads of other id arrays do not
   depend on [r] except through values read from the copy, which are
   recorded. *)
let decide_recorded prep v r =
  let key = Array.copy r in
  let k = Array.length key in
  let seen = Array.make k false and slots = Array.make k 0 and n = ref 0 in
  let read s =
    if not seen.(s) then begin
      seen.(s) <- true;
      slots.(!n) <- s;
      incr n
    end
  in
  let emit = function
    | View.Id_read { node; input = true; _ } -> read node
    | View.Ids_read { input = true } ->
        for s = 0 to k - 1 do
          read s
        done
    | View.Id_read _ | View.Ids_read _ | View.Label_read _
    | View.Structure_read _ ->
        ()
  in
  let out =
    View.with_monitor
      { View.input_ids = (fun a -> a == key); emit }
      (fun () -> decide_view prep v key)
  in
  Locald_runtime.Memo.Trie.store prep.p_cache v key
    ~reads:(Array.sub slots 0 !n) out;
  out

(* The one decide: node [v] under the ball-restricted assignment [r]
   (view-local order: [r.(i)] decorates view node [i]). A hit walks
   [v]'s trie over [r] in place; a decide never sees [r] itself, only
   a copy, so callers may pass a buffer they will overwrite. Under an
   installed monitor (a trace of this decide) the decide runs
   directly, so the trace sees every read. *)
let decide task v r =
  let prep = task.k_prep in
  task.k_decides <- task.k_decides + 1;
  if View.monitored () then decide_view prep v (Array.copy r)
  else
    match Locald_runtime.Memo.Trie.find prep.p_cache v r with
    | o ->
        task.k_hits <- task.k_hits + 1;
        o
    | exception Not_found ->
        task.k_misses <- task.k_misses + 1;
        Locald_runtime.Telemetry.span "memo.compute" (fun () ->
            decide_recorded prep v r)

(* Node [v]'s restriction of the global assignment [ids], written
   into the task's buffer for [v]. *)
let restrict task ids v =
  let _, back = task.k_prep.p_views.(v) in
  let r = task.k_rs.(v) in
  for i = 0 to Array.length back - 1 do
    r.(i) <- ids.(back.(i))
  done;
  r

let decide_all task ids out =
  for v = 0 to task.k_prep.p_order - 1 do
    out.(v) <- decide task v (restrict task ids v)
  done

let run_prepared prep ~ids =
  Ids.check_size ~n:prep.p_order ids;
  let ids = Ids.to_array ids in
  Locald_runtime.Telemetry.span "runner.run_prepared" @@ fun () ->
  let task = task prep in
  let out =
    Array.init prep.p_order (fun v -> decide task v (restrict task ids v))
  in
  flush task;
  out

let run_oblivious ob lg =
  Array.init (Labelled.order lg) (fun v ->
      Algorithm.named ob.Algorithm.ob_name ob.Algorithm.ob_decide
        (View.extract lg ~center:v ~radius:ob.Algorithm.ob_radius))

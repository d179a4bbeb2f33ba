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
    p_memo =
      (match memo with
      | Locald_runtime.Memo.Off -> None
      | Exact_ids ->
          Some (Locald_runtime.Memo.create_node_ids ?capacity:memo_capacity ()));
  }

let prepared_size prep = prep.p_order

let ball_of prep v = snd prep.p_views.(v)

(* Per-task decide state. The decide paths — a range task, one
   sampled assignment, a quotient scan — run many decides on one
   domain, so they fill one scratch restriction per node and count
   their decides, memo hits and memo misses here, adding them to the
   run's counters once at [flush]. No decide writes a shared cell on
   a memo hit. *)
type ('a, 'o) task = {
  k_prep : ('a, 'o) prepared;
  k_rs : int array array;  (* node [v]'s restriction, sized by its ball *)
  mutable k_decides : int;
  mutable k_hits : int;
  mutable k_misses : int;
}

let make_task prep k_rs =
  { k_prep = prep; k_rs; k_decides = 0; k_hits = 0; k_misses = 0 }

let task prep =
  make_task prep
    (Array.map (fun (_, back) -> Array.make (Array.length back) 0) prep.p_views)

let flush task =
  Locald_runtime.Telemetry.Counter.add c_decides task.k_decides;
  Locald_runtime.Memo.note_hits task.k_hits;
  Locald_runtime.Memo.note_misses task.k_misses;
  task.k_decides <- 0;
  task.k_hits <- 0;
  task.k_misses <- 0

(* The one memoised decide: node [v] under the ball-restricted
   assignment [r] (view-local order: [r.(i)] decorates view node [i]).
   By the locality correspondence the output is a function of (node,
   restriction), so that pair is the key. [r] is looked up in place
   and copied only on a miss, for the table and the view; a decide
   never sees an array its caller will overwrite. *)
let probe task v r =
  let prep = task.k_prep in
  task.k_decides <- task.k_decides + 1;
  let view, _ = prep.p_views.(v) in
  match prep.p_memo with
  | None ->
      Algorithm.named_decide prep.p_alg (View.reassign_ids view (Array.copy r))
  | Some tbl -> (
      match Locald_runtime.Memo.find_node_ids tbl v r with
      | o ->
          task.k_hits <- task.k_hits + 1;
          o
      | exception Not_found ->
          task.k_misses <- task.k_misses + 1;
          let key = Array.copy r in
          let o =
            Locald_runtime.Telemetry.span "memo.compute" (fun () ->
                Algorithm.named_decide prep.p_alg (View.reassign_ids view key))
          in
          Locald_runtime.Memo.add tbl (v, key) o;
          o)

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
    out.(v) <- probe task v (restrict task ids v)
  done

let decide_restricted prep v r =
  let task = make_task prep [||] in
  let o = probe task v r in
  flush task;
  o

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

let restriction_scanner task v =
  let prep = task.k_prep in
  let view, back = prep.p_views.(v) in
  let k = Array.length back in
  let plain r =
    Algorithm.named_decide prep.p_alg (View.reassign_ids view r)
  in
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
    task.k_decides <- task.k_decides + 1;
    if !opaque then plain r
    else
      let cached = match !root with None -> None | Some t -> walk t r in
      match cached with
      | Some o ->
          task.k_hits <- task.k_hits + 1;
          o
      | None ->
          task.k_misses <- task.k_misses + 1;
          let o, reads, bulk = decide_traced r in
          if bulk then opaque := true
          else begin
            Locald_runtime.Memo.note_distincts 1;
            match !root with
            | None -> root := Some (build o r reads)
            | Some t -> graft t o r reads
          end;
          o

let run_prepared prep ~ids =
  Ids.check_size ~n:prep.p_order ids;
  let ids = Ids.to_array ids in
  Locald_runtime.Telemetry.span "runner.run_prepared" @@ fun () ->
  let task = task prep in
  let out =
    Array.init prep.p_order (fun v -> probe task v (restrict task ids v))
  in
  flush task;
  out

let run_oblivious ob lg =
  Array.init (Labelled.order lg) (fun v ->
      Algorithm.named ob.Algorithm.ob_name ob.Algorithm.ob_decide
        (View.extract lg ~center:v ~radius:ob.Algorithm.ob_radius))

(* A fixed-size Domain-based worker pool with deterministic fan-out.

   Determinism contract: [map] writes result [i] from input [i] into
   slot [i] of a pre-sized array, so the output is the same value (and
   in the same order) at any job count — parallelism only changes who
   computes each slot, never what is computed. Anything stateful (an
   RNG stream, an id sequence) must therefore be split *per work item*
   by the caller, before the fan-out; {!split_seeds} and
   {!init_in_order} are the two helpers for doing that sequentially.

   Work distribution is a chunked index queue (an atomic cursor over
   [0 .. n-1] claimed in blocks), so there is no per-item locking. The
   caller participates as a worker and, while waiting for stragglers,
   steals queued tasks — a nested [map] issued from inside a worker
   falls back to the exact sequential path (a Domain-local flag), so
   the pool can never deadlock on itself. *)

let max_jobs = 64

let clamp_jobs j = if j < 1 then 1 else min j max_jobs

(* Effective size for the *default* pool: requesting more domains than
   the machine has cores oversubscribes the scheduler and made --jobs 4
   *slower* than --jobs 1 on small boxes, so the shared pool silently
   caps at [Domain.recommended_domain_count]. Explicit [create ~jobs] is
   left unclamped — tests deliberately exercise more domains than
   cores. *)
let effective_jobs j = min (clamp_jobs j) (max 1 (Domain.recommended_domain_count ()))

let env_jobs () =
  match Sys.getenv_opt "LOCALD_JOBS" with
  | Some s -> Option.map effective_jobs (int_of_string_opt (String.trim s))
  | None -> None

let recommended_jobs () =
  match env_jobs () with
  | Some j -> j
  | None -> effective_jobs (Domain.recommended_domain_count ())

(* Fan-outs below this many items run on the exact sequential path:
   domain wake-up and completion signalling cost more than the work. *)
let seq_threshold = 32

exception Lost_task of { index : int; total : int }

let () =
  Printexc.register_printer (function
    | Lost_task { index; total } ->
        Some
          (Printf.sprintf
             "Locald_runtime.Pool.Lost_task: fan-out finished without a \
              result for task %d of %d (worker lost mid-run?)"
             index total)
    | _ -> None)

(* The completion check of [map]: every slot of the fan-out must have
   been filled. A missing slot means a worker vanished without either
   a result or an exception — name the task instead of dying on a bare
   assertion, so a run killed under a fault plan reports *which* work
   item was lost. *)
let require_all results =
  let total = Array.length results in
  Array.mapi
    (fun index -> function
      | Some y -> y
      | None -> raise (Lost_task { index; total }))
    results

(* Telemetry: fan-out shape and queue pressure. Counters are always-on
   (atomic bumps); the queue-depth gauge is only touched when telemetry
   is active because it takes the metric lock. *)
let c_maps = Telemetry.Counter.make "pool.maps"
let c_tasks = Telemetry.Counter.make "pool.tasks"
let c_steals = Telemetry.Counter.make "pool.steals"
let g_queue_depth = Telemetry.Gauge.make "pool.queue_depth.max"

type t = {
  jobs : int;
  lock : Mutex.t;
  work_ready : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable live : bool;
  mutable workers : unit Domain.t list;
}

(* Set while a domain is executing pool work or a [sequential] scope:
   [map]s there go sequential instead of re-entering the queue. *)
let width_one : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let worker_main pool () =
  Domain.DLS.set width_one true;
  let rec loop () =
    Mutex.lock pool.lock;
    while Queue.is_empty pool.queue && pool.live do
      Condition.wait pool.work_ready pool.lock
    done;
    if Queue.is_empty pool.queue then Mutex.unlock pool.lock
    else begin
      let task = Queue.pop pool.queue in
      Mutex.unlock pool.lock;
      task ();
      loop ()
    end
  in
  loop ()

let create ~jobs =
  let jobs = clamp_jobs jobs in
  let pool =
    {
      jobs;
      lock = Mutex.create ();
      work_ready = Condition.create ();
      queue = Queue.create ();
      live = true;
      workers = [];
    }
  in
  if jobs > 1 then
    pool.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker_main pool));
  pool

let jobs pool = pool.jobs

let shutdown pool =
  Mutex.lock pool.lock;
  pool.live <- false;
  Condition.broadcast pool.work_ready;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let submit pool task =
  Mutex.lock pool.lock;
  Queue.push task pool.queue;
  let depth = Queue.length pool.queue in
  Condition.signal pool.work_ready;
  Mutex.unlock pool.lock;
  Telemetry.Counter.incr c_tasks;
  if Telemetry.active () then
    Telemetry.Gauge.max_to g_queue_depth (float_of_int depth)

let try_steal pool =
  Mutex.lock pool.lock;
  let task = if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue) in
  Mutex.unlock pool.lock;
  if task <> None then Telemetry.Counter.incr c_steals;
  task

(* ------------------------------------------------------------------ *)
(* The global default pool (sized by --jobs / LOCALD_JOBS)             *)
(* ------------------------------------------------------------------ *)

let default_size = ref (recommended_jobs ())
let default_pool : t option ref = ref None
let default_lock = Mutex.create ()

let default () =
  Mutex.lock default_lock;
  let pool =
    match !default_pool with
    | Some p -> p
    | None ->
        let p = create ~jobs:!default_size in
        default_pool := Some p;
        p
  in
  Mutex.unlock default_lock;
  pool

let default_jobs () = !default_size

let set_default_jobs j =
  let j = effective_jobs j in
  Mutex.lock default_lock;
  let old =
    match !default_pool with
    | Some p when p.jobs <> j ->
        default_pool := None;
        Some p
    | Some _ | None -> None
  in
  default_size := j;
  Mutex.unlock default_lock;
  Option.iter shutdown old

(* ------------------------------------------------------------------ *)
(* Deterministic fan-out                                               *)
(* ------------------------------------------------------------------ *)

let fan_out pool f xs =
  let n = Array.length xs in
  Telemetry.span "pool.map" @@ fun () -> begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    let failed = Atomic.make None in
    let chunk = max 1 (n / (pool.jobs * 8)) in
    let body () =
      let continue = ref true in
      while !continue do
        let lo = Atomic.fetch_and_add cursor chunk in
        if lo >= n || Atomic.get failed <> None then continue := false
        else begin
          let hi = min n (lo + chunk) in
          let i = ref lo in
          while !i < hi && Atomic.get failed = None do
            (match f xs.(!i) with
            | y -> results.(!i) <- Some y
            | exception e ->
                let bt = Printexc.get_raw_backtrace () in
                ignore (Atomic.compare_and_set failed None (Some (e, bt))));
            incr i
          done
        end
      done
    in
    let participants = min pool.jobs (1 + ((n - 1) / chunk)) in
    let pending = Atomic.make (participants - 1) in
    let done_lock = Mutex.create () in
    let done_cond = Condition.create () in
    for _ = 2 to participants do
      submit pool (fun () ->
          (* Per-worker busy time: the span runs on the worker domain,
             so its record lands in that domain's lane of the trace. *)
          Telemetry.span "pool.worker" body;
          Mutex.lock done_lock;
          Atomic.decr pending;
          Condition.signal done_cond;
          Mutex.unlock done_lock)
    done;
    Telemetry.span "pool.worker" body;
    (* Help drain the queue while stragglers finish — a queued sibling
       task may be stuck behind other work, and stealing it here is
       what makes the wait deadlock-free — then block on the
       completion signal rather than spinning (spinning starves the
       actual workers when domains outnumber cores). *)
    let rec wait () =
      if Atomic.get pending > 0 then begin
        (match try_steal pool with
        | Some task -> task ()
        | None ->
            Mutex.lock done_lock;
            if Atomic.get pending > 0 then Condition.wait done_cond done_lock;
            Mutex.unlock done_lock);
        wait ()
      end
    in
    wait ();
    match Atomic.get failed with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> require_all results
  end

let sequential f =
  let outer = Domain.DLS.get width_one in
  Domain.DLS.set width_one true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set width_one outer) f

let map ?pool f xs =
  Telemetry.Counter.incr c_maps;
  (* At width one no pool is consulted, so none is created. *)
  let pool =
    if Domain.DLS.get width_one then None
    else Some (match pool with Some p -> p | None -> default ())
  in
  match pool with
  | Some pool when pool.jobs > 1 && Array.length xs >= seq_threshold ->
      fan_out pool f xs
  | _ -> Telemetry.span "pool.map" (fun () -> Array.map f xs)

let map_list ?pool f xs = Array.to_list (map ?pool f (Array.of_list xs))

let map_reduce ?pool ~f ~combine ~init xs =
  Array.fold_left combine init (map ?pool f xs)

(* ------------------------------------------------------------------ *)
(* Sequential splitting helpers                                        *)
(* ------------------------------------------------------------------ *)

let init_in_order n f =
  let rec go i acc = if i >= n then List.rev acc else go (i + 1) (f i :: acc) in
  Array.of_list (go 0 [])

let split_seeds rng n = init_in_order n (fun _ -> Random.State.bits rng)

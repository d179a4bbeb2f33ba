(** A fixed-size [Domain]-based worker pool with a deterministic
    fan-out contract.

    [map] distributes work over a chunked index queue but writes result
    [i] into slot [i], so its output is byte-identical at any job
    count; parallelism changes only who computes each slot. Callers
    with stateful inputs (RNG streams, id draws) must split them {e per
    work item} sequentially before fanning out — see {!split_seeds} —
    never per worker.

    Work functions passed to [map] must be thread-safe: they run
    concurrently on several domains (the repo's deciders are pure view
    functions, which qualifies). A [map] issued from inside a pool
    worker runs on the exact sequential path, so nesting cannot
    deadlock. *)

type t

val create : jobs:int -> t
(** [jobs - 1] worker domains plus the calling domain; [jobs] is
    clamped to [1 .. 64]. [jobs = 1] spawns nothing and every [map]
    takes the exact sequential path ([Array.map]). *)

val jobs : t -> int

val shutdown : t -> unit
(** Join the worker domains. The pool must not be used afterwards. *)

(** {1 The default pool}

    Shared, lazily created, sized by (in priority order) the last
    {!set_default_jobs} call — the CLI's [--jobs] — the [LOCALD_JOBS]
    environment variable, and [Domain.recommended_domain_count].
    However it is sized, the default pool never exceeds
    [Domain.recommended_domain_count]: oversubscribing domains made
    [--jobs 4] slower than [--jobs 1] on small machines, and the
    determinism contract means capping can only change wall time. *)

val default : unit -> t
val default_jobs : unit -> int

val set_default_jobs : int -> unit
(** Resize the default pool. The size is capped at
    [Domain.recommended_domain_count]; a live pool of the capped size
    is kept, any other is shut down. *)

(** {1 Deterministic fan-out} *)

exception Lost_task of { index : int; total : int }
(** A fan-out completed with no result {e and} no exception in slot
    [index] of [total] — a worker was lost mid-run (e.g. killed under a
    fault plan). Registered with a [Printexc] printer so an escaping
    instance names the lost task instead of printing a bare
    constructor. *)

val require_all : 'a option array -> 'a array
(** The completion check of {!map}: unwrap every slot, raising
    {!Lost_task} with the first missing index. Exposed so the
    lost-worker diagnosis is unit-testable; ordinary callers never need
    it. *)

val map : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** Ordered parallel map. If any application of [f] raises, the first
    exception (in claim order) is re-raised on the caller after the
    fan-out drains, and the pool remains usable; a slot left empty with
    no recorded exception raises {!Lost_task}. Fan-outs smaller than
    32 items take the exact sequential path — below that the domain
    wake-up costs more than the work, and by the determinism contract
    the results are identical.

    Telemetry: every call counts into [pool.maps]; when telemetry is
    active the whole fan-out runs under a [pool.map] span and each
    participant's busy time under a [pool.worker] span on its own
    domain; submitted tasks, caller steals and peak queue depth are
    recorded as [pool.tasks], [pool.steals] and
    [pool.queue_depth.max]. *)

val map_list : ?pool:t -> ('a -> 'b) -> 'a list -> 'b list

val map_reduce :
  ?pool:t -> f:('a -> 'b) -> combine:('acc -> 'b -> 'acc) -> init:'acc ->
  'a array -> 'acc
(** [map] then a {e sequential} left fold, so the result does not
    depend on [combine] being associative or commutative. *)

(** {1 Sequential splitting helpers} *)

val init_in_order : int -> (int -> 'a) -> 'a array
(** Like [Array.init] but with a guaranteed ascending evaluation order
    — the building block for drawing per-item state before a fan-out. *)

val split_seeds : Random.State.t -> int -> int array
(** [n] seeds drawn sequentially from [rng]: the per-work-item seed
    split that keeps randomised experiments byte-identical at any
    [--jobs]. *)

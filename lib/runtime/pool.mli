(** A fixed-size [Domain]-based worker pool with a deterministic
    fan-out contract.

    [map] distributes work over a chunked index queue but writes result
    [i] into slot [i], so its output is byte-identical at any job
    count; parallelism changes only who computes each slot. Callers
    with stateful inputs (RNG streams, id draws) must split them {e per
    work item} sequentially before fanning out — see {!split_seeds};
    [Array.init] applies its function in index order — never per
    worker.

    Work functions passed to [map] must be thread-safe: they run
    concurrently on several domains (the repo's deciders are pure view
    functions, which qualifies). A [map] issued from inside a pool
    task runs on the exact sequential path, so nesting cannot
    deadlock.

    The pool also runs whole tasks: {!submit} queues one and {!work}
    lends the calling domain to the queue. The serve daemon runs its
    select loop and its requests as tasks of its own pool, each at
    width one. *)

type t

val create : jobs:int -> t
(** [jobs - 1] worker domains plus the calling domain; [jobs] is
    clamped to [1 .. 64]. [jobs = 1] spawns nothing and every [map]
    takes the exact sequential path ([Array.map]). *)

val jobs : t -> int

val shutdown : t -> unit
(** {!stop}, then join the worker domains. Call it from outside the
    pool's tasks. The pool must not be used afterwards. *)

(** {1 Tasks} *)

val submit : t -> (unit -> unit) -> unit
(** Queue a task. The pool's domains, and any domain in {!work}, take
    tasks in submission order and run each at width one: a {!map}
    inside a task takes the exact sequential path. A task must not
    raise; an exception escaping one ends the domain running it. *)

val work : t -> unit
(** Run queued tasks on the calling domain too, until the pool is
    stopped and its queue is empty. The calling domain runs at width
    one meanwhile, and its width is restored on return. *)

val stop : t -> unit
(** Let the queued tasks finish, then end {!work} and the worker
    domains' loops. Callable from a task. *)

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

val map : ?pool:t -> ('a -> 'b) -> 'a array -> 'b array
(** Ordered parallel map. If any application of [f] raises, the first
    exception (in claim order) is re-raised on the caller after the
    fan-out drains, and the pool remains usable. Fan-outs smaller than
    32 items take the exact sequential path — below that the domain
    wake-up costs more than the work, and by the determinism contract
    the results are identical.

    Telemetry: every call counts into [pool.maps]; when telemetry is
    active the whole fan-out runs under a [pool.map] span and each
    participant's busy time under a [pool.worker] span on its own
    domain; submitted tasks, caller steals and peak queue depth are
    recorded as [pool.tasks], [pool.steals] and
    [pool.queue_depth.max]. *)

(** {1 Seed splitting} *)

val split_seeds : Random.State.t -> int -> int array
(** [n] seeds drawn sequentially from [rng]: the per-work-item seed
    split that keeps randomised experiments byte-identical at any
    [--jobs]. *)

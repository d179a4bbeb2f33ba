(** Request semantics of the locald decision service.

    Interprets {!Locald_runtime.Proto} requests against the
    {!Sweeps} workload registry (decide), the {!Certify} registry
    (certify) and the telemetry surface (metrics), producing the
    {!Locald_runtime.Serve.handlers} the daemon's loop runs.

    {b Engine cache.} Each distinct (workload, backend config) builds
    one {e engine} — the workload's [w_eval] closure:
    prepared views plus a read-adaptive decide cache
    ({!Locald_local.Runner.prepare}) bounded by [memo_capacity] leaves.
    Engines persist across requests in an LRU cache of at most
    [max_engines], so repeated workloads hit warm caches (the
    [memo.hits] counter visibly grows across requests — the point of
    the daemon). Both eviction levels are digest-transparent.

    {b Per-request config, never ambient.} The daemon's backend is
    given once to {!create}; a request's [backend] / [sched_seed] /
    [fifo] override it for that request only, by explicit threading,
    read by {!Locald_local.Backend.resolve} as on the CLI. Every
    request runs at width one as a task of {!Locald_runtime.Serve}'s
    pool, and the default {!Locald_runtime.Pool} is never resized.
    Unknown backend names, contradictory backend options and
    out-of-range ranks are rejected with an error response — never
    coerced. A field the daemon does not read (an older client's
    [memo] or [jobs]) is ignored like any unknown field, so such a
    request gets the same reply and the same engine as one without
    it.

    {b Domain safety.} Requests run concurrently: the engine table,
    its LRU clock and every forcing of a workload's lazy instance sit
    under one mutex, and engines are shared by concurrent requests
    (their closures are pure, their decide caches concurrent).

    {b Determinism.} Decide results carry counts and the
    {!Locald_runtime.Shard.result_digest} only — no wall times, no
    cache stats — so a full-range response is byte-comparable against
    the committed BENCH pins and against any one-shot CLI run of the
    same workload. *)

type t

val default_max_engines : int
(** 8. *)

val default_memo_capacity : int
(** 65536 decide-cache leaves per engine. *)

val create :
  ?backend:Locald_local.Backend.t ->
  ?max_engines:int ->
  ?memo_capacity:int ->
  unit ->
  t
(** A service with an empty engine cache, answering requests that name
    no backend with [backend] (default [Sync]). *)

val handlers : t -> Locald_runtime.Serve.handlers
(** The dispatcher: decide / certify / metrics / ping answer with
    [ok] responses, shutdown answers and begins the drain, unknown or
    ill-typed requests answer with error responses. An exception
    escaping a decide or certify is answered by {!Locald_runtime.Serve}
    with an error response carrying the request's id — a request can
    fail, the daemon cannot. *)

(** Request semantics of the locald decision service.

    Interprets {!Locald_runtime.Proto} requests against the
    {!Sweeps} workload registry (decide), the {!Certify} registry
    (certify) and the telemetry surface (metrics), producing the
    {!Locald_runtime.Serve.handlers} the daemon's loop runs.

    {b Engine cache.} Each distinct (workload, backend config, memo
    mode) builds one {e engine} — the workload's [w_eval] closure:
    prepared views plus a decide-once memo table bounded by
    [memo_capacity]. Engines persist across requests in an LRU cache
    of at most [max_engines], so repeated workloads hit warm memo
    tables (the [memo.hits] counter visibly grows across requests —
    the point of the daemon). Both eviction levels are
    digest-transparent.

    {b Per-request config, never ambient.} The daemon's backend and
    memo mode are given once to {!create}; a request's [backend] /
    [sched_seed] / [fifo] / [memo] override them for that request
    only, by explicit threading, with the backend options read by
    {!Locald_local.Backend.resolve} as on the CLI. A request's [jobs]
    resizes the process-wide {!Locald_runtime.Pool} (kept when the
    width is unchanged). Unknown backend or memo names, contradictory
    backend options, and out-of-range ranks or job counts, are
    rejected with an error response — never coerced.

    {b Determinism.} Decide results carry counts and the
    {!Locald_runtime.Shard.result_digest} only — no wall times, no
    cache stats — so a full-range response is byte-comparable against
    the committed BENCH pins and against any one-shot CLI run of the
    same workload. *)

type t

val default_max_engines : int
(** 8. *)

val default_memo_capacity : int
(** 65536 entries per engine. *)

val create :
  ?backend:Locald_local.Backend.t ->
  ?memo:Locald_runtime.Memo.mode ->
  ?max_engines:int ->
  ?memo_capacity:int ->
  unit ->
  t
(** A service with an empty engine cache, answering requests that name
    no backend or memo mode with [backend] (default [Sync]) and [memo]
    (default [Exact_ids]). *)

val handlers : t -> Locald_runtime.Serve.handlers
(** The dispatcher: decide / certify / metrics / ping answer with
    [ok] responses, shutdown answers and begins the drain, unknown or
    ill-typed requests answer with error responses. Handler exceptions
    are caught and returned as error responses — a request can fail,
    the daemon cannot. *)

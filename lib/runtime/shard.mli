(** Deterministic sharding of exhaustive rank spaces, with crash-safe
    checkpointing and an exact merge.

    The exhaustive workloads address their search space by {e rank}
    (the lexicographic index of an id assignment — see
    {!Locald_runtime.Orbit.unrank}); ranks are grouped into fixed-size
    chunks, and chunk [c] belongs to shard [c mod shards]. The
    partition is pure index arithmetic: no shard's work depends on any
    other shard's traversal order, so shards can run in separate OS
    processes (or, later, on separate machines — nothing here assumes
    a shared address space).

    Each shard folds its chunks in increasing chunk order into running
    tallies and a digest chain, optionally checkpointing every chunk
    through {!Checkpoint}. {!merge} then folds the per-shard summaries
    into {e exactly} the unsharded result: counts add, the
    first-failure rank is the minimum over shards (ranks are global),
    and the merged digest is computed by the same formula the bench
    pins use — so [shard]+[merge] reproduces the unsharded exhaustive
    digest byte-identically, for any shard count, resumed or not.

    A merge over missing shards reports {!merged.Incomplete} rather
    than fabricating a total — the same three-valued discipline as the
    fault layer's degraded verdicts. *)

type plan = private { p_total : int; p_chunk : int; p_shards : int }

val plan : total:int -> ?chunk:int -> shards:int -> unit -> plan
(** [chunk] defaults to 512 ranks. @raise Invalid_argument on a
    negative total, a non-positive chunk size or shard count. *)

val chunk_count : plan -> int
(** [ceil (total / chunk)]. *)

val range : plan -> int -> int * int
(** [range plan c] is chunk [c]'s rank interval [\[lo, hi)]. *)

val owner : plan -> int -> int
(** The shard owning chunk [c]: [c mod shards] — strided, so shard
    loads stay balanced even when per-rank cost drifts across the
    space. *)

val chunks_of : plan -> index:int -> int list
(** The chunks shard [index] owns, in increasing order (its processing
    order). *)

val ranks_of : plan -> index:int -> int
(** Total ranks shard [index] covers. *)

(** {1 Chunk results and digests} *)

type chunk_result = {
  r_correct : int;
  r_wrong : int;
  r_fail : int option;  (** global rank of the first wrong assignment *)
}

val digest_init : string

val digest_fold : string -> chunk:int -> chunk_result -> string
(** The shard-local digest chain: hashes the previous digest, the
    chunk index and the tallies. Recomputed on resume to validate a
    restored checkpoint prefix — a record whose counts were corrupted
    (but still parse) breaks the chain and is recomputed instead of
    trusted. *)

val digest : 'a -> string
(** The hex MD5 of [x]'s marshalled bytes: the digest of every pinned
    result — bench rows, experiment rows, serve responses. [x] must
    hold no closures. *)

val result_digest : correct:int -> wrong:int -> assignments:int -> string
(** The merged-result digest, {!digest} of [(correct, wrong,
    assignments)]: the formula the exhaustive workloads pin in
    BENCH_quick.json, so a sweep's merged digest is directly
    comparable against the committed pin. *)

(** {1 Per-shard execution} *)

type summary = {
  s_workload : string;
  s_index : int;
  s_of : int;
  s_total : int;
  s_chunk : int;
  s_chunks : int;        (** chunks this shard owns *)
  s_correct : int;
  s_wrong : int;
  s_fail : int option;   (** minimal failing rank in this shard *)
  s_digest : string;     (** final digest-chain value *)
}

val run :
  ?checkpoint:string ->
  ?resume:bool ->
  workload:string ->
  plan:plan ->
  index:int ->
  eval:(lo:int -> hi:int -> chunk_result) ->
  unit ->
  summary * int
(** Execute shard [index]: fold its chunks in increasing order,
    calling [eval] on each rank range. With [checkpoint:dir], every
    completed chunk is appended to [dir/shard-<index>.jsonl] and a
    completion marker is renamed into place at the end; with [resume]
    additionally, the valid checkpoint prefix (chunk sequence {e and}
    digest chain verified) is restored instead of recomputed. Returns
    the summary and the number of chunks actually evaluated (restored
    chunks excluded) — an uninterrupted resume of a finished shard
    evaluates zero. Emits [shard.start] / [shard.ckpt] telemetry
    events when tracing. *)

(** {1 Merge} *)

type merged =
  | Complete of {
      m_correct : int;
      m_wrong : int;
      m_assignments : int;
      m_fail : int option;
      m_digest : string;
    }
  | Incomplete of {
      mi_missing : int list;  (** shard indices with no summary (sorted) *)
      mi_correct : int;
      mi_wrong : int;
      mi_covered : int;       (** ranks the present shards cover *)
      mi_assignments : int;   (** the full total, for context *)
    }

val merge :
  workload:string ->
  plan:plan ->
  summaries:(int * summary) list ->
  (merged, string) result
(** Fold per-shard summaries. [Error] reports inconsistent inputs — a
    summary from a different workload, geometry, or index — which a
    caller must treat as a verdict mismatch, never average away.
    Missing shards yield [Incomplete] with honest partial tallies. *)

val summary_json : summary -> Telemetry.Json.t

val summary_of_json : Telemetry.Json.t -> summary option

val read_summaries : dir:string -> shards:int -> (int * summary) list
(** The completion summaries present in a checkpoint directory
    (shards without a done marker are simply absent). *)

(** {1 Supervision policy} *)

val backoff : seed:int -> index:int -> attempt:int -> float
(** Retry delay in seconds for shard [index]'s [attempt]-th retry
    (0-based): capped exponential — [0.25 * 2^attempt], at most 8s —
    plus deterministic jitter (a seeded hash of
    [(seed, index, attempt)], up to 25% of the base), so a sweep's
    retry schedule is reproducible from its seed while simultaneous
    crashers still fan out. *)

(** Process exit codes shared by the [locald] subcommands and the
    sweep supervisor's shard-exit classification (documented in the
    README): *)
module Exit : sig
  val ok : int
  (** 0 — complete, verdicts as declared. *)

  val incomplete : int
  (** 2 — degraded or incomplete: fault-degraded runs, missing shards,
      retries exhausted; also [analyze] findings. *)

  val mismatch : int
  (** 3 — verdict mismatch: a certification contradicting a declared
      classification, a merged digest differing from the expected one,
      or inconsistent shard summaries. *)

  val usage : int
  (** 124 — usage error (cmdliner's own CLI-error code). *)
end

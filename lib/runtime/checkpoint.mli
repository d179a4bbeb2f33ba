(** Crash-safe per-shard checkpoint files for the sharded exhaustive
    runs.

    One shard writes one append-only JSONL file,
    [DIR/shard-<i>.jsonl]: a schema-tagged header line followed by one
    record per completed chunk (rank range, tallies, the running
    verdict digest). Every append is flushed and fsync'd before it
    returns, so a crash — SIGKILL included — loses at most the record
    being written, as a torn final line. {!load} tolerates the torn
    tail by dropping everything from the first unparseable line onward;
    {!resume} additionally truncates the file back to that valid prefix
    before appending, so a resumed file never carries garbage in its
    middle.

    Completion is a separate, atomically-renamed marker
    ([DIR/shard-<i>.done.json]): a reader that sees the marker sees
    the complete summary, and a merge never confuses a crashed shard
    with a finished one. Checkpoint files always live on their own
    file descriptors under [DIR] — they cannot interleave with the
    bench JSON writer or the telemetry sink.

    Open writers register with {!Locald_runtime.Telemetry.on_shutdown}
    so SIGINT/SIGTERM flush and sync the tail before the process dies
    (see {!Telemetry.install_signal_handlers}). *)

val schema : string
(** ["locald-ckpt/1"], written in every header line. *)

type header = {
  h_workload : string;  (** registry name of the sharded workload *)
  h_index : int;        (** this shard's index, [0 <= h_index < h_of] *)
  h_of : int;           (** shard count of the run *)
  h_total : int;        (** total ranks in the partitioned space *)
  h_chunk : int;        (** chunk size the ranks are grouped by *)
}

type chunk = {
  c_chunk : int;          (** chunk index in the global chunking *)
  c_lo : int;             (** first rank of the chunk *)
  c_hi : int;             (** one past the last rank *)
  c_correct : int;
  c_wrong : int;
  c_fail : int option;    (** global rank of the chunk's first wrong
                              assignment, if any *)
  c_digest : string;      (** running digest after folding this chunk *)
}

val file_path : dir:string -> index:int -> string
(** [DIR/shard-<i>.jsonl]. *)

val done_path : dir:string -> index:int -> string
(** [DIR/shard-<i>.done.json]. *)

type writer

val create : dir:string -> header -> writer
(** Open a fresh checkpoint file (truncating any previous one, and
    removing a stale completion marker), write the header line, and
    register the writer for signal-time flushing. [dir] is created if
    missing. *)

val resume : dir:string -> header -> writer * chunk list
(** Reopen an existing checkpoint: parse its valid prefix, truncate
    the torn tail off the file, and return the writer positioned for
    appending together with the chunks already recorded. When the file
    is missing, unreadable, or its header disagrees with [header]
    (different workload, shard geometry, total or chunk size), the
    checkpoint is discarded and this is exactly {!create}. *)

val append : writer -> chunk -> unit
(** Append one chunk record (one line), flush, and fsync. *)

val close : writer -> unit
(** Final fsync and close; unregisters the writer. Idempotent. *)

val load : dir:string -> index:int -> (header * chunk list) option
(** Read a checkpoint file's valid prefix without touching it: [None]
    if the file is missing or its header line is unreadable; otherwise
    the header and every chunk record before the first unparseable
    line. *)

val mark_done : dir:string -> index:int -> Telemetry.Json.t -> unit
(** Write the shard's completion summary atomically: the JSON goes to
    a temporary file in [dir], is fsync'd, and is [rename]d over
    {!done_path} — readers see either no marker or the whole summary,
    never a torn one. *)

val read_done : dir:string -> index:int -> Telemetry.Json.t option
(** The completion summary, if the shard finished. *)

val active_writers : unit -> int
(** Number of writers currently open in this process — the bench JSON
    writer refuses to run while any checkpoint writer is live, so the
    two can never interleave output. *)

val active_writer_paths : unit -> string list
(** The files those writers hold open, oldest first — what the bench
    refusal names so the operator can see {e which} shard is live. *)

val flush_all : unit -> unit
(** Flush and fsync every open writer (what the shutdown hook runs). *)

(** Simulator backend selection.

    Every engine entry point that has both a synchronous and an
    asynchronous implementation ({!Runner.run}, {!Runner.prepare}, and
    everything layered on them) takes a value of this type as its
    [?backend] argument, defaulting to [Sync]. The two backends are
    pinned byte-identical on fault-free inputs (see {!Async_runner} and
    [test/test_async.ml]), so the backend never changes a digest. *)

type t = Sync | Async of Async_runner.config

val of_string : string -> t option
(** Case- and whitespace-insensitive; ["async"] selects
    {!Async_runner.default_config}. *)

val resolve :
  string option -> sched_seed:int option -> fifo:bool option ->
  (t option, string) result
(** The one reading of the backend options, shared by the CLI's
    [--backend] / [--sched-seed] / [--fifo] and a serve request's
    [backend] / [sched_seed] / [fifo]. The name goes through
    {!of_string}; a scheduler seed (default 0) or FIFO flag (default
    off) refines the async config, and either alone selects the async
    backend. [Ok None] means nothing was chosen, so the caller's own
    default applies. An unknown name, or a seed or FIFO flag given
    with ["sync"], is an [Error] message. *)

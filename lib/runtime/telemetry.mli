(** Structured telemetry: spans, per-run metrics, JSONL event sink.

    Cost model, from cheapest to most detailed:

    - {b Counters} are always collected (an atomic increment behind an
      epoch check) — they back [locald --stats] and the bench JSON.
    - {b Metrics} ({!set_metrics}) additionally record gauges and
      span-duration histograms — what [locald metrics] prints.
    - {b Tracing} ({!open_sink}) additionally writes a JSONL record per
      span and event.

    With neither metrics nor tracing enabled, {!span} is the identity
    behind one branch — no clock read, no allocation — so enabling the
    library in a build costs untraced runs nothing, and result digests
    are byte-identical with telemetry on or off (it only observes).

    Metric state is scoped to an ambient {e run}; {!new_run} opens a
    fresh scope (the bench harness calls it between workloads so each
    entry reports independent counts). *)

(** Minimal JSON: a typed emitter with proper string escaping, and a
    strict parser for round-trip tests and trace validation. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact, single-line, valid JSON. Strings are escaped per RFC
      8259; non-finite floats (no JSON syntax) degrade to [null];
      integral floats print with a trailing [.0] so they re-parse as
      [Float]. *)

  val escape_string : string -> string
  (** The quoted, escaped form of a string alone. *)

  val output : out_channel -> t -> unit

  exception Parse_error of string

  val default_max_depth : int
  (** The default nesting bound of {!of_string}: 512. *)

  val of_string : ?max_depth:int -> string -> t
  (** Strict parse of one JSON value; raises {!Parse_error} on anything
      else (including trailing input). [of_string (to_string v) = v]
      for values without non-finite floats.

      [max_depth] (default {!default_max_depth}) bounds container
      nesting: input nested deeper raises {!Parse_error} instead of
      recursing — a frame of brackets from a hostile socket peer must
      produce a clean parse error, never a stack overflow. The length
      of the input is bounded by the caller (the wire protocol's
      [max_frame]); this parser only has to stay shallow. *)

  val member : string -> t -> t option
  (** [member k (Obj fields)] is the first binding of [k], if any. *)
end

(** {1 Run scoping} *)

val new_run : unit -> unit
(** Install a fresh metric scope: all counters, gauges and histograms
    restart from zero. Handles made before the call transparently
    re-resolve into the new scope. *)

(** Monotonic counters, always collected. [make] registers the name,
    which {!metrics_json} then always lists; increments after the first touch are an epoch check plus an atomic
    increment. Counts may under-report by a handful under domain races
    around {!new_run} — same contract as the memo tables' totals. *)
module Counter : sig
  type t

  val make : string -> t

  val incr : t -> unit

  val add : t -> int -> unit

  val get : t -> int
  (** Value accumulated in the {e current} run. *)

  val name : t -> string
end

(** Gauges: last-value / max / accumulating float cells, keyed by name
    in the current run. Updated under the run lock — keep them off
    per-item hot paths. *)
module Gauge : sig
  type t

  val make : string -> t

  val set : t -> float -> unit

  val add : t -> float -> unit

  val max_to : t -> float -> unit
  (** Raise the gauge to [v] if [v] is larger. *)

  val get : t -> float
end

(** {1 Switches} *)

val set_metrics : bool -> unit
(** Enable gauge and span-histogram collection (independent of the
    sink). *)

val metrics_enabled : unit -> bool

val open_sink : string -> unit
(** Start tracing to [path] (truncates). Writes a [run-start] header
    line; a [run-end] line is appended by {!close_sink}, which is also
    registered [at_exit]. Replaces any previous sink. *)

val close_sink : unit -> unit

val tracing : unit -> bool

val sink_path : unit -> string option

(** {1 Shutdown}

    [at_exit] does not run when the process dies to a signal, so an
    interrupted [--trace] run would lose buffered events and an
    interrupted shard its open checkpoint tail. *)

val on_shutdown : (unit -> unit) -> unit
(** Register a hook run (exceptions swallowed) by the installed signal
    handlers before the process re-delivers the fatal signal to
    itself. {!Checkpoint} registers its open-writer flush here. *)

val run_shutdown_hooks : unit -> unit
(** Run the registered hooks now (what the handlers call; exposed for
    tests). *)

val install_signal_handlers : unit -> unit
(** Install SIGINT/SIGTERM handlers that run the shutdown hooks, close
    the trace sink, then restore the default disposition and
    re-deliver the signal — the process still dies by the signal
    (parents observe the 128+n convention), with nothing buffered
    lost. Idempotent. *)

val active : unit -> bool
(** Tracing or metrics enabled — whether {!span} instruments. *)

val schema : string
(** The trace schema tag written in the [run-start] record. *)

(** {1 Spans and events} *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] and, when {!active}, records its monotonic
    duration: into the [span.<name>] histogram, and as a JSONL record
    [{"ev":"span","name":..,"t_s":..,"dur_s":..,"depth":..,"domain":..}]
    when tracing. Spans nest through a Domain-local stack: [depth] and
    [parent] describe the opening domain's stack, and [domain] carries
    the domain id so multi-domain traces reassemble into lanes. An
    exception from [f] closes the span with ["ok": false] and
    re-raises. When not {!active}: exactly [f ()]. *)

val event : string -> (string * Json.t) list -> unit
(** Write one JSONL event record (name plus caller fields) when
    tracing; otherwise nothing. *)

(** {1 Snapshots} *)

val metrics_json : unit -> Json.t
(** The current run's counters, gauges and histogram summaries, keys
    sorted. Every counter ever made with {!Counter.make} is listed, with
    0 when the run has not touched it. *)

val pp_metrics : Format.formatter -> unit -> unit
(** Human-readable rendering of {!metrics_json}. *)

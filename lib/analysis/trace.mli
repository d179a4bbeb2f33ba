(** Access traces: what a local algorithm actually read of its view.

    [run] executes one decision under an installed {!Locald_graph.View}
    monitor and returns the recorded event stream together with
    aggregate counts. The trace distinguishes {e input} identifier
    reads (the id array carries the run's input assignment — the reads
    that make an algorithm Id-dependent) from {e synthetic} ones (ids
    the algorithm manufactured itself, e.g. the simulation [A*]
    re-assigning ids before re-running its base decider). This
    provenance split is what lets [A*] certify as Id-oblivious even
    though its inner decider reads identifiers on every call. *)

open Locald_graph

type t = {
  events : View.access list;  (** in emission order *)
  input_id_reads : int;       (** single-id reads with input provenance *)
  input_bulk_reads : int;     (** whole-array reads with input provenance *)
  synthetic_id_reads : int;   (** id reads (single or bulk) of synthetic arrays *)
  label_reads : int;
  structure_reads : int;
  max_depth : int;            (** deepest per-node access; [-1] if none *)
}

val run : input_ids:(int array -> bool) -> ('v -> 'o) -> 'v -> 'o * t
(** [run ~input_ids f v] evaluates [f v] under a monitor whose
    provenance classifier is [input_ids], and returns the result with
    the trace. Exceptions from [f] propagate (the monitor is
    uninstalled first). *)

val run_twice :
  input_ids:(int array -> bool) -> ('v -> 'o) -> 'v -> ('o * t) * ('o * t)
(** [run_twice ~input_ids f v] is [run] applied twice — the
    nondeterminism double-run of certification — under a single
    installed monitor, so the monitor's per-view distance memo is
    computed once. Each run gets its own event stream. *)

val reads_input_ids : t -> bool
(** Did the decision read the input assignment at all? *)

val first_input_id_read : t -> View.access option
(** The earliest event witnessing an input identifier read. *)

val total_events : t -> int

val equal : t -> t -> bool
(** Structural equality of event streams — two runs of a
    deterministic decision on the same view must compare equal. *)

val pp_access : Format.formatter -> View.access -> unit

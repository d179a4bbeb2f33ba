(** Acceptance semantics of local decision (Section 1.2): a run accepts
    when {e every} node outputs yes, and rejects when {e at least one}
    node outputs no. *)

type t =
  | Accept
  | Reject of int list  (** the nodes that said no (non-empty, sorted) *)

val of_outputs : bool array -> t
val accepts : t -> bool
val rejects : t -> bool
val pp : Format.formatter -> t -> unit

(** {1 Three-valued outcomes (fault-injected runs)}

    Under a fault plan a node may be unable to answer soundly (it
    crashed, its view stayed incomplete, its fuel ran out); it then
    emits [Unknown] instead of a boolean. The aggregate keeps the
    Section 1.2 semantics on the decided nodes and carries the unknown
    set alongside, so a degraded run is reported as degraded — never
    as a spurious separation. *)

module Outcome : sig
  type t = Accept | Reject | Unknown

  val of_bool : bool -> t
  val to_string : t -> string
  val pp : Format.formatter -> t -> unit
end

type degraded = {
  verdict : t;
      (** the verdict over the {e decided} nodes only. A [Reject] is
          sound regardless of unknowns (some node really said no); an
          [Accept] with unknowns is weak evidence only. *)
  unknowns : int list;  (** nodes that answered [Unknown] (sorted) *)
}

val of_outcomes : Outcome.t array -> degraded

val decisive : degraded -> bool
(** No node answered [Unknown]: the verdict has full force. *)

val degraded : degraded -> bool

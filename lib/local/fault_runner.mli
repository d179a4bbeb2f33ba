(** The gossip engine under a {!Faults.plan}: message loss and
    duplication, crash-stop failures, bounded re-gossip, and fuel
    budgets — with graceful degradation instead of exceptions.

    Two invariants are enforced by the test suite:
    - {b empty-plan identity}: under {!Faults.empty} every node
      decides, with the output {!Runner.run} computes by direct view
      extraction (message passing against extraction), and
    - {b seeded determinism}: a fixed plan reproduces the same faulted
      outputs and stats byte-for-byte, run after run.

    A node that cannot answer soundly answers {!Unknown} rather than
    raising: it crashed, its accumulated knowledge misses part of its
    true radius-[t] ball (so deciding would read a counterfeit view),
    its decide budget is exhausted, or its decide step itself raised.
    Consequently every [Decided] output equals the output the
    fault-free engine would have produced for that node. This is the
    only engine that injects faults ({!Async_runner} is fault-free), so
    the three-valued {!outcome} type is defined here. *)

open Locald_graph

type reason = Crashed | Incomplete_view | Fuel_exhausted | Decide_failed
(** Why a node answered {!Unknown}. *)

type 'o outcome = Decided of 'o | Unknown of reason
(** The three-valued per-node answer: an output, or [Unknown] with the
    reason the node could not answer soundly. *)

val decided : 'o outcome -> bool
val reason_name : reason -> string

type stats = {
  rounds : int;          (** [radius + 1 + retries] *)
  messages : int;        (** attempted sends between live endpoints *)
  delivered : int;       (** snapshots actually merged (incl. duplicates) *)
  dropped : int;         (** messages lost to the plan *)
  duplicated : int;      (** messages delivered twice *)
  payload_items : int;   (** gross items over delivered snapshots *)
  new_items : int;       (** net items (new to their receiver) *)
  crashed : int;         (** nodes that crash-stopped before the end *)
  incomplete : int;      (** live nodes whose ball stayed incomplete *)
  fuel_exhausted : int;  (** live, complete nodes out of decide fuel *)
}

val degraded_nodes : stats -> int
(** [crashed + incomplete + fuel_exhausted]: how many nodes answered
    {!Unknown}. *)

val default_cost : 'a View.t -> int
(** The default decide-cost model: the order of the reconstructed view
    (a node pays one fuel unit per node it must process). *)

val run :
  plan:Faults.plan ->
  ?cost:('a View.t -> int) ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  ids:Ids.t ->
  'o outcome array * stats
(** Run the faulted gossip engine. [cost] overrides {!default_cost}
    for plans with a fuel budget.
    @raise Ids.Invalid_ids on an assignment-size mismatch.
    @raise Invalid_argument on an invalid plan. *)

val run_outputs :
  plan:Faults.plan ->
  ?cost:('a View.t -> int) ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  ids:Ids.t ->
  'o outcome array
(** {!run} without the stats. *)

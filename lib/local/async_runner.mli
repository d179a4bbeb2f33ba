(** Asynchronous message-passing backend: real typed messages under a
    deterministic adversarial scheduler.

    The synchronous gossip engine ({!Fault_runner}) simulates the
    LOCAL model by lock-step rounds, and {!Runner}'s [Sync] backend
    extracts each view directly. This backend drops the round
    structure entirely: every node runs an event-driven {e
    budget-annotated flooding} protocol, and a seeded adversary picks
    which in-flight message is delivered next. The paper's deciders
    are constant-horizon functions of the radius-[t] view, so their
    verdicts must not depend on message timing — and with this engine
    that claim is executable: on every instance, under every scheduler
    seed, in FIFO and non-FIFO mode, the decided outputs (and the
    views assembled for {!Runner.prepare}) are byte-identical to the
    synchronous ones. [test/test_async.ml] pins this.

    {2 Protocol}

    Knowledge items are identifier bindings [(id, label)] and
    id-keyed edges, exactly as in {!Knowledge}; each copy of an item
    carries a {e hop budget}. A node's own binding starts at budget
    [B = radius + retries]; an item received at budget [b] is
    forwarded at [b - 1] and travels no further once its budget is
    exhausted, so flooding reaches exactly the [B]-hop horizon of the
    synchronous engine. On the {e first} delivery over a link the
    receiver also learns the incident edge at a fresh budget [B] — the
    asynchronous analogue of the extra gossip round the synchronous
    engine runs beyond the horizon (the "t ± 1" correspondence), which
    is what teaches a node the rim edges between its distance-[t]
    neighbours. Every message is label-closed: it carries the sender's
    own binding and both endpoint bindings of every edge it ships, so
    {!Knowledge.reconstruct} never sees an edge with an unbound
    endpoint. A node sends one batch to all neighbours when it first
    wakes up, and again whenever a delivery strictly improved an item
    it can still forward; budgets are bounded and improvements strict,
    so quiescence is guaranteed and, fault-free, every node provably
    assembles its complete radius-[t] ball.

    {2 Scheduler}

    Every sent message gets a static priority — a splitmix64 hash of
    [(sched_seed, uid)] — and the adversary always delivers the
    pending message with the smallest priority. Non-FIFO mode permutes
    {e all} in-flight messages; FIFO mode keeps each directed link's
    messages in send order and lets the adversary interleave only
    across links. Both are pure functions of the seed: the same seed
    replays the identical delivery trace, different seeds explore
    genuinely different interleavings.

    {2 Faults}

    {!Faults} plans are interpreted at delivery time: drop and
    duplicate coins are flipped per delivery attempt, keyed by the
    message's per-link sequence number (the asynchronous stand-in for
    the round number, so a fixed plan is reproducible independent of
    scheduler order). [crashes = (node, r)] means the node completes
    [r - 1] send batches and crashes at its [r]-th send opportunity:
    its pending messages are withdrawn mid-flight and it neither
    sends, merges nor decides from then on. Messages addressed to a
    crashed node are dead-lettered. For the three-valued outcome a
    node counts as crashed under the same plan arithmetic as the
    synchronous engine ([r <= radius + 1 + retries]), so crash
    degradation aggregates identically across backends. [retries] buys
    extra flooding budget — knowledge can detour around lossy links —
    mirroring the synchronous engine's extra re-gossip rounds. *)

open Locald_graph

type config = {
  sched_seed : int;  (** adversary seed: drives every delivery choice *)
  fifo : bool;  (** preserve per-directed-link send order *)
}

val default_config : config
(** [{ sched_seed = 0; fifo = false }]. *)

(** {1 Observable execution trace} *)

type drop_reason =
  | Plan_drop  (** lost to the fault plan's drop coin *)
  | Sender_crashed  (** withdrawn mid-flight when its sender crashed *)
  | Receiver_crashed  (** dead-lettered at a crashed receiver *)

type event =
  | Send of { uid : int; src : int; dst : int }
  | Deliver of { uid : int; src : int; dst : int; duplicate : bool }
  | Drop of { uid : int; src : int; dst : int; reason : drop_reason }
  | Crash of { node : int; activation : int }
      (** The node crashed at what would have been its
          [activation]-th send batch. *)

val pp_event : Format.formatter -> event -> unit

type stats = {
  activations : int;  (** send batches performed (one per waking node) *)
  sends : int;  (** messages enqueued *)
  deliveries : int;  (** messages merged by their receiver
                         (duplicate copies counted) *)
  dropped : int;  (** deliveries lost to the plan *)
  duplicated : int;  (** messages delivered twice *)
  dead_letters : int;  (** messages addressed to a crashed node *)
  purged : int;  (** in-flight messages withdrawn by a sender crash *)
  reorders : int;  (** deliveries that overtook an older pending
                       message — how adversarial the schedule was *)
  max_queue : int;  (** peak number of in-flight messages *)
  payload_items : int;  (** gross items shipped over deliveries *)
  new_items : int;  (** items genuinely new to their receiver *)
}

(** {1 Fault-free engine}

    These are the backend behind [Runner.run ~backend] and
    [Runner.prepare ~backend]: same decided outputs, same assembled
    views, any seed. *)

val run :
  ?config:config -> ('a, 'o) Algorithm.t -> 'a Labelled.t -> ids:Ids.t -> 'o array
(** Run the flooding protocol to quiescence, then let every node
    reconstruct its radius-[t] view from what it heard and decide.
    Outputs equal [Runner.run] on every input (cross-backend pinned).
    @raise Ids.Invalid_ids on an assignment-size mismatch.
    @raise View.No_ids (prefixed with the algorithm's name) if the
    decide reads ids off an id-free view. *)

val run_stats :
  ?config:config ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  ids:Ids.t ->
  'o array * stats
(** {!run} with the messaging accounting. *)

val assemble_views :
  ?config:config -> radius:int -> 'a Labelled.t -> ('a View.t * int array) array
(** Assemble every node's id-free radius-[radius] view plus its
    sorted ball-to-global index map by actually running the protocol
    under identity identifiers — representation-identical to
    [View.extract_mapped] on every node (what makes [Runner.prepare
    ~backend:async] byte-compatible with the synchronous prepare, memo
    keys included). Performs exactly one view extraction per node. *)

(** {1 Faulted engine} *)

val default_cost : 'a View.t -> int
(** Same decide-cost model as {!Fault_runner.default_cost}: one fuel
    unit per node of the reconstructed view. *)

val run_outcomes :
  ?config:config ->
  plan:Faults.plan ->
  ?cost:('a View.t -> int) ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  ids:Ids.t ->
  'o Outcome.t array * stats
(** The degraded engine: same three-valued contract as
    {!Fault_runner.run} — crashed nodes answer [Unknown Crashed]
    (under the synchronous plan arithmetic, see above), incomplete
    balls [Unknown Incomplete_view] rather than deciding on a
    counterfeit view, fuel exhaustion and raising decides degrade to
    [Unknown]. Every [Decided] output equals the fault-free output.
    @raise Ids.Invalid_ids on an assignment-size mismatch.
    @raise Invalid_argument on an invalid plan. *)

val run_trace :
  ?config:config ->
  plan:Faults.plan ->
  ?cost:('a View.t -> int) ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  ids:Ids.t ->
  'o Outcome.t array * stats * event list
(** {!run_outcomes} that also records the full scheduler trace, in
    execution order — what the replay-determinism and crash-isolation
    properties are stated over. *)

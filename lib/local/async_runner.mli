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
    synchronous ones. [test/test_async.ml] pins this. The engine is
    fault-free: fault injection lives in the synchronous gossip engine
    ({!Fault_runner}) alone.

    {2 Protocol}

    Knowledge items are identifier bindings [(id, label)] and
    id-keyed edges, exactly as in {!Knowledge}; each copy of an item
    carries a {e hop budget}. A node's own binding starts at budget
    [B = radius]; an item received at budget [b] is forwarded at
    [b - 1] and travels no further once its budget is exhausted, so
    flooding reaches exactly the [B]-hop horizon of the synchronous
    engine. On the {e first} delivery over a link the receiver also
    learns the incident edge at a fresh budget [B] — the asynchronous
    analogue of the extra gossip round the synchronous engine runs
    beyond the horizon (the "t ± 1" correspondence), which is what
    teaches a node the rim edges between its distance-[t] neighbours.
    Every message is label-closed: it carries the sender's own binding
    and both endpoint bindings of every edge it ships, so
    {!Knowledge.reconstruct} never sees an edge with an unbound
    endpoint. A node sends one batch to all neighbours when it first
    wakes up, and again whenever a delivery strictly improved an item
    it can still forward; budgets are bounded and improvements strict,
    so quiescence is guaranteed and every node provably assembles its
    complete radius-[t] ball.

    {2 Scheduler}

    Every sent message gets a static priority — a splitmix64 hash of
    [(sched_seed, uid)] — and the adversary always delivers the
    pending message with the smallest priority. Non-FIFO mode permutes
    {e all} in-flight messages; FIFO mode keeps each directed link's
    messages in send order and lets the adversary interleave only
    across links. Both are pure functions of the seed: the same seed
    replays the identical delivery trace, different seeds explore
    genuinely different interleavings. *)

open Locald_graph

type config = {
  sched_seed : int;  (** adversary seed: drives every delivery choice *)
  fifo : bool;  (** preserve per-directed-link send order *)
}

val default_config : config
(** [{ sched_seed = 0; fifo = false }]. *)

(** {1 Engine}

    The backend behind [Runner.run ~backend] and [Runner.prepare
    ~backend]: same decided outputs, same assembled views, any seed. *)

val run :
  ?config:config -> ('a, 'o) Algorithm.t -> 'a Labelled.t -> ids:Ids.t -> 'o array
(** Run the flooding protocol to quiescence, then let every node
    reconstruct its radius-[t] view from what it heard and decide.
    Outputs equal [Runner.run] on every input (cross-backend pinned).
    @raise Ids.Invalid_ids on an assignment-size mismatch.
    @raise View.No_ids (prefixed with the algorithm's name) if the
    decide reads ids off an id-free view. *)

type delivery = { uid : int; src : int; dst : int }
(** One delivered message: its send-order [uid] and its directed link
    [src -> dst] (global node indices). *)

val run_trace :
  ?config:config ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  ids:Ids.t ->
  'o array * delivery list
(** {!run} that also records every delivery, in execution order — what
    the replay-determinism, interleaving and FIFO properties are stated
    over. *)

val assemble_views :
  ?config:config -> radius:int -> 'a Labelled.t -> ('a View.t * int array) array
(** Assemble every node's id-free radius-[radius] view plus its
    sorted ball-to-global index map by actually running the protocol
    under identity identifiers — representation-identical to
    [View.extract_mapped] on every node (what makes [Runner.prepare
    ~backend:async] byte-compatible with the synchronous prepare, memo
    keys included). Performs exactly one view extraction per node. *)

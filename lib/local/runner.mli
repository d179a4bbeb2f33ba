(** Execution engine for local algorithms.

    Each node's output is its decide function applied to its radius-[t]
    view. The [Sync] backend extracts that view directly from the
    global input; the [Async] backend assembles it by running the
    message-passing protocol of {!Async_runner}. {!Fault_runner} is the
    synchronous counterpart: [t + 1] lock-step rounds of
    full-information gossip, after which each node reconstructs its
    view from what it heard. All three give the same outputs on every
    input (pinned by test_async's cross-backend battery and
    test_faults' empty-plan identity) — the textbook "local horizon =
    round count" correspondence of Section 1.2. All three reject an
    assignment of the wrong size through {!Ids.check_size}; both
    backends here decide through {!Algorithm.named_decide}, which
    attributes an id read on an id-free view to the algorithm that
    made it ({!Fault_runner} degrades a raising decide to [Unknown]
    instead).

    The quantifying paths go through a {!prepared} instance, whose
    views are extracted once, and through its one decide, {!decide}:
    the range walks, sampled assignments, {!run_prepared},
    {!decide_restricted} and the quotient scan alike. Every
    preparation carries a read-adaptive decide cache, so each node is
    decided once per distinct value of the id slots its decide reads,
    recorded by the access monitor; that is sound for pure decides
    whose id reads all go through [View]'s accessors. The cache has no
    off switch: {!run} is the uncached engine, and the reference the
    cached paths are tested against. *)

open Locald_graph

val run :
  ?backend:Backend.t ->
  ('a, 'o) Algorithm.t -> 'a Labelled.t -> ids:Ids.t -> 'o array
(** Direct view-evaluation engine. [backend] (default [Sync]) selects
    the simulator: [Sync] extracts views directly, [Async] runs the
    message-passing protocol of {!Async_runner} — same outputs, pinned
    by the cross-backend battery.
    @raise Ids.Invalid_ids if the assignment has the wrong size.
    @raise View.No_ids (here and in the other engines), prefixed with
    the algorithm's name, if the decide function applies an identifier
    accessor to an id-free view. *)

type ('a, 'o) prepared
(** A labelled graph with every node's radius-[t] ball pre-extracted
    (id-free). The ball structure is independent of the identifier
    assignment, so quantifying over assignments only needs to
    re-decorate the cached views — {!run_prepared} performs no ball
    extraction at all. *)

val prepare :
  ?memo_capacity:int ->
  ?backend:Backend.t ->
  ('a, 'o) Algorithm.t -> 'a Labelled.t -> ('a, 'o) prepared
(** Extract all views once ([Labelled.order lg] extractions —
    [backend] (default [Sync]) chooses whether they come from direct
    extraction or from an asynchronous protocol run under identity
    identifiers; the resulting (view, ball map) pairs are
    representation-identical either way).

    Every decide through the preparation goes through its
    read-adaptive decide cache ({!Locald_runtime.Memo.Trie}): a decide
    that misses runs under a recording access monitor, and its output
    is reused for every later restriction of that node's ball that
    agrees on the id slots it read. So a node is decided once per
    distinct value of the slots it reads — once per distinct
    restriction for a decide that reads them all. For pure decide
    functions whose id reads all go through [View]'s accessors this is
    observationally transparent: the outputs are {!run}'s, at any
    [--jobs]. A decider that is {e not} a pure function of its view
    (e.g. per-node randomness) must run through {!run} instead.

    [memo_capacity] bounds the cache's stored leaves; reaching it
    drops every node's trie, which recomputes dropped behaviours and
    never changes outputs. Long-lived preparations — the serve
    daemon's cross-request engines — always pass a bound; one-shot runs
    default to unbounded. *)

val prepared_size : ('a, 'o) prepared -> int
(** Order of the underlying graph. *)

val ball_of : ('a, 'o) prepared -> int -> int array
(** The sorted array mapping node [v]'s view-local indices back to
    global node numbers (so its length is [v]'s ball size). Must not be
    mutated. *)

type ('a, 'o) task
(** Per-task decide state over one preparation: a scratch restriction
    buffer per node, and the task's counts of decides, cache hits and
    cache misses, which reach the run's [runner.decides], [memo.hits]
    and [memo.misses] only at {!flush}. A task is single-domain: make
    one per pool task. *)

val task : ('a, 'o) prepared -> ('a, 'o) task

val flush : ('a, 'o) task -> unit
(** Add the task's counts to the run's counters and zero them. *)

val decide : ('a, 'o) task -> int -> int array -> 'o
(** [decide task v r] decides node [v] under the ball-restricted id
    assignment [r] ([r.(i)] is the id of view-local node [i] — the
    restriction of a global assignment along {!ball_of}; it must be
    injective). This is the one decide every path below goes through.
    A cache hit walks [v]'s trie over [r] and allocates nothing,
    takes no lock and writes no shared cell; a miss decides a
    copy of [r] under a recording monitor inside a [memo.compute] span
    and stores the output. Under an installed monitor (a trace of the
    decide itself) it decides directly, so the trace sees every read.
    [r] may be a scratch buffer: the decide sees only a copy. *)

val decide_all : ('a, 'o) task -> int array -> 'o array -> unit
(** [decide_all task ids out] decides every node under the global
    assignment [ids] (indexed by node; [ids] must be injective and is
    neither retained nor copied) and writes node [v]'s output to
    [out.(v)]: {!decide} on each node's restriction, filled into the
    task's buffer. *)

val decide_restricted : ('a, 'o) prepared -> int -> int array -> 'o
(** [decide_restricted prep v r] is {!decide} on a fresh task, counted
    and flushed at once. *)

val run_prepared : ('a, 'o) prepared -> ids:Ids.t -> 'o array
(** Exactly [run alg lg ~ids], but with the per-assignment view
    extraction hoisted out and decides routed through the cache —
    {!decide_all} on a fresh task, flushed before it returns.
    @raise Ids.Invalid_ids if the assignment has the wrong size. *)

val run_oblivious : ('a, 'o) Algorithm.oblivious -> 'a Labelled.t -> 'o array
(** Id-oblivious algorithms need no identifier assignment at all. *)

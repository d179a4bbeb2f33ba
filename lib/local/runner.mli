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
    instead). *)

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
  ?memo:Locald_runtime.Memo.mode ->
  ?memo_capacity:int ->
  ?backend:Backend.t ->
  ('a, 'o) Algorithm.t -> 'a Labelled.t -> ('a, 'o) prepared
(** Extract all views once ([Labelled.order lg] extractions —
    [backend] (default [Sync]) chooses whether they come from direct
    extraction or from an asynchronous protocol run under identity
    identifiers; the resulting (view, ball map) pairs are
    representation-identical either way).

    [memo] (default [Off]) attaches a decide-once table: every decide
    through this preparation is keyed by (node, ball id-restriction)
    and computed at most once per distinct key. For pure decide
    functions this is observationally transparent — byte-identical
    outputs at any [--jobs], with the memo on or off; deciders that are
    {e not} pure functions of their view (e.g. per-node randomness)
    must keep the default.

    [memo_capacity] bounds the attached table's live entries
    ({!Locald_runtime.Memo.create}'s [capacity]); eviction recomputes
    dropped keys and never changes outputs. Long-lived preparations —
    the serve daemon's cross-request engines — always pass a bound;
    one-shot runs default to unbounded. *)

val prepared_size : ('a, 'o) prepared -> int
(** Order of the underlying graph. *)

val ball_of : ('a, 'o) prepared -> int -> int array
(** The sorted array mapping node [v]'s view-local indices back to
    global node numbers (so its length is [v]'s ball size). Must not be
    mutated. *)

type ('a, 'o) task
(** Per-task decide state over one preparation: a scratch restriction
    buffer per node, and the task's counts of decides, memo hits and
    memo misses, which reach the run's [runner.decides], [memo.hits]
    and [memo.misses] only at {!flush}. A task is single-domain: make
    one per pool task. *)

val task : ('a, 'o) prepared -> ('a, 'o) task

val flush : ('a, 'o) task -> unit
(** Add the task's counts to the run's counters and zero them. *)

val decide_all : ('a, 'o) task -> int array -> 'o array -> unit
(** [decide_all task ids out] decides every node under the global
    assignment [ids] (indexed by node; [ids] must be injective and is
    neither retained nor copied) and writes node [v]'s output to
    [out.(v)]. Each node's restriction is filled into the task's
    buffer and looked up in the memo in place, so a decide answered by
    the memo allocates nothing, takes no lock and writes no shared
    counter; the restriction is copied only on a miss, for the table
    and the view. *)

val decide_restricted : ('a, 'o) prepared -> int -> int array -> 'o
(** [decide_restricted prep v r] decides node [v] under the
    ball-restricted id assignment [r] ([r.(i)] is the id of view-local
    node [i] — the restriction of a global assignment along
    {!ball_of}; it must be injective). It goes through the same probe
    as {!decide_all}, counted and flushed at once. [r] need not be
    fresh: it is copied if the memo stores it or a decide sees it, so
    the caller may overwrite it afterwards. *)

val restriction_scanner : ('a, 'o) task -> int -> int array -> 'o
(** [restriction_scanner task v] is a stateful decide function for
    scanning node [v] over many ball restrictions (same calling
    convention as {!decide_restricted}; the restriction array may be a
    reused scratch buffer). It caches decide outputs in a read-adaptive
    decision trie: each real decide runs under an access monitor that
    records which id slots it read, and any later restriction agreeing
    on exactly those slots reuses the output without deciding at all —
    for a decide that reads, say, only the centre id, an entire
    [perm bound k] scan costs [bound] real decides. Requires a pure
    decide (the decide-once contract); bulk id reads or replay
    inconsistencies degrade transparently to direct decides. The
    returned closure is single-domain state for one sequential scan —
    do not share it across domains; under an installed monitor it
    degrades to direct decides so traces stay faithful. Decides, trie
    hits and misses count into [task] (flush it after the scan);
    stored behaviours count into [memo.distinct] at once. *)

val run_prepared : ('a, 'o) prepared -> ids:Ids.t -> 'o array
(** Exactly [run alg lg ~ids], but with the per-assignment view
    extraction hoisted out (and decides routed through the memo when
    one was requested at {!prepare}) — {!decide_all} on a fresh task,
    flushed before it returns.
    @raise Ids.Invalid_ids if the assignment has the wrong size. *)

val run_oblivious : ('a, 'o) Algorithm.oblivious -> 'a Labelled.t -> 'o array
(** Id-oblivious algorithms need no identifier assignment at all. *)

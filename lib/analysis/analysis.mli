(** The obliviousness certifier: run an algorithm over every view of a
    set of covered instances under the {!Trace} provenance monitor and
    aggregate the per-node access traces into a certificate.

    The verdict lattice:
    - {!Certified_oblivious} — no input-identifier read occurred on any
      covered view. Because [locald analyze] makes identifier reads
      accessor-mediated (no naked [.ids] field access outside
      [lib/graph]/[lib/analysis]), this is a sound certificate that the
      outputs on the covered views are invariant under re-assignment of
      the identifiers: the decision never looked at them.
    - {!Id_dependent} — a concrete witness: the view (instance and
      node) and the recorded access path of the first input-identifier
      read, optionally cross-checked against
      {!Locald_local.Oblivious.find_variance_exhaustive} /
      [find_variance_sampled] for semantic variance.
    - {!Inconclusive} — the coverage bound was hit (view budget
      exhausted, or nodes degraded by a fault plan), so neither claim
      is certified.

    Orthogonally to the verdict, the certifier flags {e radius
    violations} (a per-node access strictly deeper than the declared
    radius — only observable when certifying with [slack > 0], which
    extracts views beyond the declared horizon) and {e nondeterminism}
    (two runs of the decision on the same view with differing traces
    or outputs).

    Certification fans out per view on the {!Locald_runtime.Pool};
    verdicts, witnesses and flags are identical at any job count
    (first-in-node-order semantics, as everywhere in this repo). *)

open Locald_graph
open Locald_local
open Locald_runtime

type confirmation = {
  cf_instance : string;          (** instance the variance search ran on *)
  cf_method : string;            (** e.g. ["exhaustive<8"], ["sampled 40x"] *)
  cf_variance : Oblivious.witness option;
      (** a node whose output differs under two assignments, if found *)
}

type witness = {
  w_instance : string;
  w_node : int;                  (** node of the instance whose decision read an id *)
  w_access : View.access;        (** the first input-id read: view-local node, depth, value *)
  w_trace : Trace.t;             (** the decision's full access trace *)
  w_confirmation : confirmation option;
}

type flag =
  | Radius_violation of {
      rv_instance : string;
      rv_node : int;
      rv_depth : int;            (** deepest per-node access observed *)
      rv_declared : int;         (** the algorithm's declared radius *)
    }
  | Nondeterminism of { nd_instance : string; nd_node : int }

type verdict =
  | Certified_oblivious
  | Id_dependent of witness
  | Inconclusive of { covered : int; total : int; why : string }

type report = {
  rep_algorithm : string;
  rep_radius : int;
  rep_verdict : verdict;
  rep_views : int;               (** views actually traced *)
  rep_total : int;               (** candidate views over all instances *)
  rep_degraded : int;            (** views excluded by the fault plan *)
  rep_events : int;              (** total trace events over traced views *)
  rep_max_depth : int;           (** deepest per-node access over all traces *)
  rep_flags : flag list;
}

type confirm_method =
  | Confirm_exhaustive of int
      (** bound for {!Oblivious.find_variance_exhaustive} *)
  | Confirm_sampled of { regime : Ids.regime; trials : int; seed : int }

val certify :
  ?pool:Pool.t ->
  ?budget:int ->
  ?slack:int ->
  ?plan:Faults.plan ->
  ?confirm:confirm_method ->
  ?confirm_on:string * 'a Labelled.t ->
  ?backend:Backend.t ->
  ('a, bool) Algorithm.t ->
  instances:(string * 'a Labelled.t) list ->
  report
(** [certify alg ~instances] traces [alg] on every node's view of every
    instance (with the sequential assignment [0 .. n-1] attached, so
    id reads are observable) and aggregates the verdict.

    [budget] (default [20_000]) caps the number of traced views; hitting
    it yields {!Inconclusive}. [slack] (default [0]) extracts views at
    [radius + slack], enabling radius-violation detection. [plan] runs
    each instance through {!Fault_runner} first and excludes nodes that
    answered [Unknown] from the coverage (degraded coverage is reported
    as {!Inconclusive}, never as a false certificate). [confirm]
    cross-checks an {!Id_dependent} verdict by searching for semantic
    output variance on [confirm_on] (default: the witness instance),
    running the search under [backend] (default [Sync]), the engine
    setting of {!Oblivious.find_variance_exhaustive} and
    {!Oblivious.find_variance_sampled}. *)

val certified : report -> bool
val id_dependent : report -> bool

val confirmed : report -> bool option
(** [Some true] when an {!Id_dependent} witness was semantically
    confirmed by the variance cross-check, [Some false] when the
    cross-check ran and found no variance, [None] when no cross-check
    applies (not id-dependent, or no [confirm] method given). *)

val verdict_name : verdict -> string
val pp_flag : Format.formatter -> flag -> unit
val pp_verdict : Format.formatter -> verdict -> unit
val pp_report : Format.formatter -> report -> unit

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
      {!Locald_local.Oblivious.find_variance_exhaustive} for semantic
      variance.
    - {!Inconclusive} — the view budget was exhausted, so neither
      claim is certified.

    Orthogonally to the verdict, the certifier flags {e
    nondeterminism}: two runs of the decision on the same view with
    differing traces or outputs.

    Certification fans out per view on the {!Locald_runtime.Pool};
    verdicts, witnesses and flags are identical at any job count
    (first-in-node-order semantics, as everywhere in this repo). *)

open Locald_graph
open Locald_local

type confirmation = {
  cf_instance : string;          (** instance the variance search ran on *)
  cf_method : string;            (** e.g. ["exhaustive<8"] *)
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

type flag = Nondeterminism of { nd_instance : string; nd_node : int }

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
  rep_events : int;              (** total trace events over traced views *)
  rep_max_depth : int;           (** deepest per-node access over all traces *)
  rep_flags : flag list;
}

type confirm_method =
  | Confirm_exhaustive of int
      (** bound for {!Oblivious.find_variance_exhaustive} *)

val certify :
  ?budget:int ->
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
    it yields {!Inconclusive}. [confirm] cross-checks an
    {!Id_dependent} verdict by searching for semantic output variance
    on [confirm_on] (default: the witness instance), running the search
    under [backend] (default [Sync]), the engine setting of
    {!Oblivious.find_variance_exhaustive}. *)

val certified : report -> bool
val id_dependent : report -> bool

val confirmed : report -> bool option
(** [Some true] when an {!Id_dependent} witness was semantically
    confirmed by the variance cross-check, [Some false] when the
    cross-check ran and found no variance, [None] when no cross-check
    applies (not id-dependent, or no [confirm] method given). *)

val verdict_name : verdict -> string
val pp_flag : Format.formatter -> flag -> unit

(** The bundled-decider certification registry backing
    [locald certify].

    Every decider the repo ships is registered here with its {e
    declared} classification — Id-oblivious or Id-dependent — and a
    small instance set; {!run} pushes each through
    {!Locald_analysis.Analysis.certify} and checks the verdict against
    the declaration. The headline content mirrors Table 1:

    - the Section 2 [P'-verifier] and the Section 3 Id-oblivious
      candidates certify {e oblivious} (their traces contain no input
      identifier read);
    - the Section 2 [P-decider], the Theorem 2 [Gmr-LD-decider] and the
      (notB, notC) blaming decider each produce a concrete id-read
      witness, cross-checked by an exhaustive output-variance search on
      a purpose-built small instance;
    - the Id-oblivious simulation [A*] certifies oblivious {e
      non-trivially}: it is fed id-carrying views and its trace is full
      of identifier reads — all with synthetic provenance (the
      assignments it manufactures itself), none from the input.

    For the Id-dependent subjects the confirm instances are tuned so
    the exhaustive search hits variance within the first few
    lexicographic assignments (see the implementation comments); the
    searches stay well under a millisecond despite factorial spaces. *)

open Locald_graph
open Locald_local
open Locald_analysis

type claim = Claims_oblivious | Claims_id_dependent

type subject =
  | Subject : {
      s_cell : string;  (** Table 1 cell the subject belongs to *)
      s_claim : claim;
      s_alg : ('a, bool) Algorithm.t;
      s_instances : (string * 'a Labelled.t) list;
      s_confirm : Analysis.confirm_method option;
      s_confirm_on : (string * 'a Labelled.t) option;
    }
      -> subject

type row = {
  c_name : string;
  c_radius : int;
  c_cell : string;
  c_claim : claim;
  c_report : Analysis.report;
  c_ok : bool;
      (** verdict matches the declaration; for Id-dependent subjects
          with a confirm method, the variance search must also succeed *)
}

val claim_name : claim -> string

val subjects : ?quick:bool -> unit -> subject list
(** The registry. [quick] prunes to one subject per verdict kind. *)

val run :
  ?quick:bool ->
  ?backend:Backend.t ->
  unit ->
  row list
(** Certify every registered subject (instance sets are built
    sequentially; each certification fans out on the pool). [backend]
    configures the confirm step's variance search (the [backend] of
    {!Locald_analysis.Analysis.certify}); the probes decide under the
    trace monitor, uncached. Output is byte-identical at any job count
    and backend. *)

val all_ok : row list -> bool

(** Nondeterministic local decision — the class NLD of Fraigniaud,
    Korman and Peleg, referenced in Section 1.3 of the paper: a
    property is in NLD when a prover can label every node of a
    yes-instance with a {e certificate} such that a local verifier
    accepts, while no certificate assignment makes it accept a
    no-instance.

    The paper notes (citing OPODIS 2012) that, unlike LD vs LD*,
    nondeterminism erases the role of identifiers: [NLD* = NLD]. The
    executable content here: a nondeterministic verifier for a
    property together with a prover for its yes-instances, plus
    bounded refutation search on no-instances. *)

open Locald_graph


type ('a, 'c) verifier = {
  nv_name : string;
  nv_radius : int;
  nv_decide : ('a * 'c) View.t -> bool;
      (** Id-oblivious verifier over (input, certificate) labels. *)
}

type ('a, 'c) prover = 'a Labelled.t -> 'c array
(** Produces the certificates for a (claimed) yes-instance. *)

type ('a, 'c) t = {
  verifier : ('a, 'c) verifier;
  prover : ('a, 'c) prover;
}

val make :
  name:string ->
  radius:int ->
  (('a * 'c) View.t -> bool) ->
  prover:('a, 'c) prover ->
  ('a, 'c) t

val accepts_with :
  ('a, 'c) verifier -> 'a Labelled.t -> certificates:'c array -> Verdict.t
(** Run the verifier under a given certificate assignment. *)

val accepts_proved : ('a, 'c) t -> 'a Labelled.t -> Verdict.t
(** Run the verifier under the prover's certificates — must accept on
    yes-instances for the scheme to witness NLD membership. *)

val refuted :
  ?memo:Locald_runtime.Memo.mode ->
  candidates:'c list ->
  ('a, 'c) verifier ->
  'a Labelled.t ->
  bool
(** Exhaustive soundness check over all certificate assignments drawn
    from the finite candidate set: [true] when {e every} assignment is
    rejected (the instance cannot be certified). Exponential in the
    instance size — use on small no-instances only. Unless [memo] is
    [Off] (default [Exact_ids]), each node decides every distinct
    certificate restriction of its ball once. *)

val refuted_sampled :
  rng:Random.State.t ->
  trials:int ->
  candidates:'c list ->
  ('a, 'c) verifier ->
  'a Labelled.t ->
  bool
(** Randomised soundness check: no sampled assignment is accepted. *)

(** {1 Stock schemes} *)

val bipartite_scheme : (unit, int) t
(** The textbook NLD* scheme for bipartiteness: the certificate is a
    proper 2-colouring, which exists exactly on bipartite graphs and
    is verified at radius 1. Bipartiteness is not locally decidable
    even with identifiers (a long odd cycle is locally
    indistinguishable from an even one), so this witnesses a property
    in NLD* outside LD — the nondeterministic world where, as the
    paper notes, identifiers provably play no role. *)

val even_cycle_scheme : (unit, int) t
(** The same certificates restricted to cycle inputs: verifies "the
    cycle has even length". *)

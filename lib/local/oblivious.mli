(** Checking Id-obliviousness empirically.

    An algorithm is Id-oblivious when its node outputs are invariant
    under every reassignment of identifiers. For small instances this
    can be checked exhaustively over a bounded identifier window (the
    search [Analysis.certify] runs to cross-check an [Id_dependent]
    verdict); in general it is sampled. A single witness of variance
    proves an algorithm is *not* oblivious (that is the content of
    Theorem 1: some properties force the outputs to depend on the
    assignment). *)

open Locald_graph

type witness = {
  node : int;
  ids_a : Ids.t;
  ids_b : Ids.t;
}
(** A node whose output differs under two assignments. *)

val find_variance_sampled :
  ?backend:Backend.t ->
  rng:Random.State.t ->
  trials:int ->
  regime:Ids.regime ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  witness option
(** Sample assignment pairs valid under the regime and look for an
    output that changes. [None] means no variance was observed (the
    algorithm behaved obliviously on this instance). [backend]
    (default [Sync]) runs each assignment, as in {!Runner.run}. *)

val find_variance_exhaustive :
  ?backend:Backend.t ->
  bound:int ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  witness option
(** Compare the outputs under {e every} injective assignment into
    [0 .. bound-1] against the first one; the witness is the first
    differing node of the first differing assignment, in enumeration
    order. Exponential; use only on small instances.

    Views are prepared once with [backend] (default [Sync]) and decides
    go through the preparation's decide cache (see {!Runner.prepare}).
    Neither changes the witness: it is the one a {!Runner.run} per
    assignment finds. *)

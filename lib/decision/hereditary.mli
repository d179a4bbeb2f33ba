(** Hereditary languages — properties closed under (connected) induced
    subgraphs.

    They matter to the paper twice: Fraigniaud-Halldorsson-Korman
    proved [LD* = LD] {e for hereditary languages} (the conjecture the
    paper refutes in general), and the randomisation threshold of
    Fraigniaud-Korman-Peleg pertains to hereditary languages — the
    paper's Corollary 1 shows it fails for arbitrary ones. This module
    provides the (sampled) closure test that places the witness
    properties {e outside} the hereditary class, closing the loop with
    those statements. *)

open Locald_graph

type witness = {
  subgraph_nodes : int array;  (** nodes of the violating induced subgraph *)
}

val connected_induced_counterexample :
  rng:Random.State.t ->
  samples:int ->
  'a Property.t ->
  'a Labelled.t ->
  witness option
(** Search for a connected induced subgraph of a {e yes}-instance that
    leaves the property — a witness of non-hereditariness. Subgraphs
    are sampled as BFS-grown connected chunks of random sizes; for
    instances with at most 12 nodes every connected subset is tried.
    [None] means no violation was found (consistent with the property
    being hereditary). *)

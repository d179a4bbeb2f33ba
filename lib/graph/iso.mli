(** Graph, labelled-graph and rooted-view isomorphism.

    The separation proofs of the paper rest on local indistinguishability:
    every [t]-view of a no-instance already occurs (up to isomorphism of
    rooted labelled views) in some yes-instance. This module provides the
    exact isomorphism tests used by those experiments, plus a cheap
    canonical signature for bucketing views before the exact test. *)

val graphs_isomorphic : Graph.t -> Graph.t -> bool

val find_graph_isomorphism : Graph.t -> Graph.t -> int array option
(** [find_graph_isomorphism g h] returns a bijection [p] with
    [p.(u) = image of u] such that [u ~ v] in [g] iff [p u ~ p v] in
    [h], if one exists. *)

val labelled_isomorphic :
  ('a -> 'a -> bool) -> 'a Labelled.t -> 'a Labelled.t -> bool
(** Isomorphism that must preserve node labels (up to the given label
    equality). This is the paper's notion of labelled-graph
    isomorphism invariance. *)

val views_isomorphic : ('a -> 'a -> bool) -> 'a View.t -> 'a View.t -> bool
(** Rooted isomorphism: centre maps to centre and labels are preserved.
    Identifiers are deliberately ignored — two views are isomorphic
    exactly when an Id-oblivious algorithm cannot tell them apart. *)

val view_signature : ('a -> int) -> 'a View.t -> int
(** [view_signature hash v] is invariant under rooted labelled
    isomorphism (given that [hash] respects the label equality used in
    {!views_isomorphic}): isomorphic views get equal signatures. Used
    to bucket views; collisions are resolved by the exact test. It is
    [Hashtbl.hash (c.(centre), sorted colours as a list, size)] over the
    {!refine_colors} colouring [c] of the view whose initial colour at
    node [i] is [Hashtbl.hash (hash label_i, distance of i from the
    centre)]. *)

val view_refinement : ('a -> int) -> 'a View.t -> int * int array option
(** [view_refinement hash v] is [(view_signature hash v, numbering)],
    computed once: [numbering] is [Some c] exactly when that colouring
    [c] is discrete. It then numbers the nodes [0 .. order - 1], and two
    rooted labelled views with discrete colourings are isomorphic iff
    renumbering them by their colourings gives equal centres, labels and
    edges — the canonical form of [Locald_runtime.Canon]. *)

val order_type : int array -> int array
(** [order_type ids] replaces each identifier by its rank in the sorted
    order of the (injective) array: [[|5;1;9|]] and [[|7;2;8|]] share
    the order type [[|1;0;2|]]. Two id restrictions with equal order
    type are indistinguishable to an {e order-invariant} algorithm —
    the canonicalisation behind the memo's [Order_type] mode. *)

val refine_colors : Graph.t -> int array -> int array
(** One-graph 1-WL colour refinement with canonical colour numbering:
    the output colours of isomorphic coloured graphs are equal as
    multisets. The initial colours (any ints) are first replaced by
    their rank among the distinct initial values. Each round then
    replaces a vertex's colour by the rank of its key (colour, sorted
    neighbour colours) among the distinct keys, ordered
    lexicographically (a proper prefix first), so colours are always
    numbered densely from 0 and a colour class only ever splits. The
    refinement is not run to a fixpoint: it stops before a round once
    six rounds have run or the colouring is discrete, and after a round
    that did not increase the number of colours. Exposed for tests. *)

val refine_joint :
  Graph.t -> int array -> Graph.t -> int array -> int array * int array
(** [refine_joint g cg h ch] refines the two coloured graphs together,
    as one graph (their disjoint union) numbered jointly, so equal
    colours in [g] and [h] mean equal keys. The rounds are those of
    {!refine_colors} with one change to the stopping rule: a round that
    leaves the number of colours occurring in [g] plus the number
    occurring in [h] unchanged ends it. The backtracking search only
    matches vertices of equal joint colour. Exposed for tests. *)

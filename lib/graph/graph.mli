(** Immutable simple undirected graphs on vertices [0 .. n-1].

    This is the basic substrate for the whole library: the LOCAL-model
    simulator, the paper's constructions (layered trees, execution-table
    grids, pyramids) and the view/isomorphism machinery are all built on
    top of this module. *)

type t
(** A simple undirected graph. Vertices are integers [0 .. n-1]; no
    self-loops, no parallel edges. The representation is immutable and
    flat (compressed sparse row): one offsets array of [n + 1] entries
    and one array holding every sorted neighbour list back to back, so
    a graph is two blocks however many vertices it has. *)

exception Invalid_graph of string
(** Raised by constructors on malformed input (self-loop, out-of-range
    endpoint, ...). *)

(** {1 Construction} *)

val of_edges : n:int -> (int * int) list -> t
(** [of_edges ~n edges] builds the graph on [n] vertices with the given
    edge list. Duplicate edges (in either orientation) are merged.
    @raise Invalid_graph on self-loops or out-of-range endpoints. *)

val of_adjacency : int array array -> t
(** [of_adjacency adj] builds a graph from an adjacency-list array.
    The input is normalised (sorted, deduplicated) and symmetrised.
    @raise Invalid_graph on self-loops or out-of-range endpoints. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] vertices. *)

(** {1 Basic accessors} *)

val order : t -> int
(** Number of vertices. *)

val size : t -> int
(** Number of edges. *)

val neighbours : t -> int -> int array
(** [neighbours g v] is a fresh copy of the sorted neighbours of [v].
    Hot paths should use {!neighbour} and the iterators below, which
    allocate nothing. *)

val neighbour : t -> int -> int -> int
(** [neighbour g v k] is the [k]-th smallest neighbour of [v] (its port
    [k]), for [0 <= k < degree g v], in O(1). *)

val iter_neighbours : (int -> unit) -> t -> int -> unit
(** [iter_neighbours f g v] applies [f] to each neighbour of [v] in
    increasing order. *)

val fold_neighbours : (int -> 'a -> 'a) -> t -> int -> 'a -> 'a
(** [fold_neighbours f g v init] folds [f] over the neighbours of [v]
    in increasing order: [f wk (... (f w1 init))]. *)

val exists_neighbour : (int -> bool) -> t -> int -> bool
(** Does some neighbour of [v] satisfy the predicate? Stops at the
    first that does. *)

val for_all_neighbours : (int -> bool) -> t -> int -> bool

val degree : t -> int -> int

val max_degree : t -> int

val mem_edge : t -> int -> int -> bool
(** [mem_edge g u v] tests adjacency in O(log degree). *)

val edges : t -> (int * int) list
(** All edges as pairs [(u, v)] with [u < v], lexicographically sorted. *)

val fold_vertices : (int -> 'a -> 'a) -> t -> 'a -> 'a

val iter_vertices : (int -> unit) -> t -> unit

val vertices : t -> int list

(** {1 Distances and balls} *)

val bfs_distances : t -> int -> int array
(** [bfs_distances g v] maps each vertex to its hop distance from [v];
    unreachable vertices get [max_int]. *)

val dist : t -> int -> int -> int
(** Hop distance, [max_int] if disconnected. *)

val ball : t -> int -> int -> int array
(** [ball g v t] is the sorted array of vertices within distance [t] of
    [v] (the set B(v,t) of the paper).
    @raise Invalid_graph if [v] is out of range or [t] is negative. *)

val extract_ball : t -> center:int -> radius:int -> t * int array * int
(** [extract_ball g ~center ~radius] is [(sub, back, c)]: the subgraph
    induced on [ball g center radius], exactly as {!induced} numbers it
    ([back] sorted, vertex [i] of [sub] is [back.(i)] of [g]), and the
    centre's index [c] in it. One truncated BFS over a per-domain
    bitset scratch; beyond the returned arrays it allocates only a
    temporary to sort the members of a ball far smaller than [g].
    @raise Invalid_graph as {!ball}. *)

val with_ball :
  t -> center:int -> radius:int -> (t -> int array -> int -> 'r) -> 'r
(** [with_ball g ~center ~radius f] is [f sub back c] for the same
    [(sub, back, c)] as {!extract_ball}, but [sub]'s arrays and [back]
    are the calling domain's lent buffers, valid only until [f]
    returns: only [back.(0 .. order sub - 1)] is meaningful, and
    neither may escape [f]. A [with_ball] nested inside [f] on the same
    domain gets an owned extraction instead; the buffers are released
    when [f] returns or raises. This is the primitive under
    {!View.with_extract}. *)

val scratch_reuses : unit -> int
(** Number of {!extract_ball}/{!with_ball} calls (all domains, since
    program start) served by their domain's already-allocated BFS
    scratch. *)

val scratch_allocs : unit -> int
(** Number of such calls that had to grow (or first allocate) it. *)

val eccentricity : t -> int -> int
(** Maximum finite distance from the given vertex.
    @raise Invalid_graph if the graph is disconnected. *)

val diameter : t -> int
(** @raise Invalid_graph if the graph is disconnected or empty. *)

val is_connected : t -> bool
(** The empty graph counts as connected. *)

val components : t -> int array list
(** Connected components as sorted vertex arrays. *)

(** {1 Transformations} *)

val induced : t -> int array -> t * int array
(** [induced g vs] is the subgraph induced on the vertex set [vs]
    (which must be duplicate-free). Returns [(h, back)] where vertex
    [i] of [h] corresponds to vertex [back.(i)] of [g]; [back] is
    sorted so the mapping is canonical. *)

val disjoint_union : t -> t -> t
(** [disjoint_union g h] places [h] after [g]: vertex [v] of [h]
    becomes [order g + v]. *)

val add_edges : t -> (int * int) list -> t
(** Add edges between existing vertices. *)

val add_vertices : t -> int -> t
(** [add_vertices g k] appends [k] isolated vertices. *)

val relabel : t -> int array -> t
(** [relabel g perm] renames vertex [v] to [perm.(v)]; [perm] must be a
    permutation of [0 .. n-1]. The result is isomorphic to [g]. *)

(** {1 Predicates} *)

val equal : t -> t -> bool
(** Equality of the concrete representations (same vertex numbering),
    compared over the used entries only; use {!Iso} for isomorphism. *)

val is_cycle : t -> bool
(** Is the graph a single cycle on >= 3 vertices? *)

val is_path_graph : t -> bool
(** Is the graph a simple path (n >= 1)? *)

val is_regular : t -> int -> bool

val pp : Format.formatter -> t -> unit

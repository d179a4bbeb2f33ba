(** Gossip knowledge: the (id -> label) bindings and id-keyed edges a
    node accumulates while running a full-information message-passing
    engine. Shared by the synchronous {!Fault_runner} and the
    asynchronous {!Async_runner}, so that both reconstruct views
    through the very same code path.

    The knowledge sets are label-closed by construction: an edge is
    only ever learned from a snapshot (or alongside the sender's own
    binding), so both endpoints of every known edge carry a known
    label. {!reconstruct} relies on this invariant. *)

open Locald_graph

type 'a t

val create : unit -> 'a t
(** Empty knowledge. Callers seed it with the owner's own binding. *)

val copy : 'a t -> 'a t
(** An independent snapshot (used for synchronous-round semantics). *)

val add_node : 'a t -> int -> 'a -> unit
val add_edge : 'a t -> int -> int -> unit
(** Edges are stored undirected (canonically ordered endpoints). *)

val mem_node : 'a t -> int -> bool
val mem_edge : 'a t -> int -> int -> bool

val node_count : 'a t -> int
val edge_count : 'a t -> int

val items : 'a t -> int
(** [node_count + edge_count]: the payload size of shipping the whole
    knowledge set over a link. *)

val merge : into:'a t -> 'a t -> int
(** Merge a received snapshot, returning the number of bindings that
    were genuinely new to the receiver (the {e net} payload). *)

val reconstruct : 'a t -> center_id:int -> radius:int -> 'a View.t
(** Rebuild the known graph (nodes indexed by sorted id) and extract
    the centre's radius-[radius] view from it — the decision step of
    the gossip engines.
    @raise Not_found if [center_id] is unknown. *)

val contains_ball :
  'a t -> 'a Labelled.t -> ids:int array -> center:int -> radius:int -> bool
(** Ground-truth completeness test: does the knowledge contain every
    node of the true radius-[radius] ball around [center] in [lg], and
    every true edge among those ball nodes? When it does, the
    reconstructed view provably equals the fault-free one (the known
    graph is a subgraph of the truth, so no foreign node can enter the
    ball and no distance can shrink). *)

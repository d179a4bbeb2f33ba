(** The comparison models of Section 1.3: OI (order-invariant
    algorithms) and PO (port numbering and orientation).

    These are not needed for the paper's theorems; they support the
    related-work examples — e.g. that producing an edge orientation or
    2-colouring a 1-regular graph is trivial in LOCAL and PO,
    impossible for an Id-oblivious algorithm, and that OI sits strictly
    between Id-oblivious and LOCAL. *)

open Locald_graph

(** {1 OI: order-invariant algorithms} *)

val order_invariant :
  name:string -> radius:int -> ('a View.t -> 'o) -> ('a, 'o) Algorithm.t
(** Builds an order-invariant algorithm: before deciding, the view's
    identifiers are replaced by their ranks within the view, so the
    output can depend only on the relative order of identifiers. *)

val find_order_variance :
  ?backend:Backend.t ->
  rng:Random.State.t ->
  trials:int ->
  ('a, 'o) Algorithm.t ->
  'a Labelled.t ->
  Oblivious.witness option
(** Look for two order-isomorphic assignments (one is a monotone
    re-embedding of the other) under which some output differs — a
    witness that the algorithm is not order-invariant. [backend]
    (default [Sync]) runs each assignment, as in {!Runner.run}. *)

(** {1 PO: port numbering and orientation} *)

type 'a po_edge = {
  port : int;           (** local port of the edge at the centre *)
  remote_port : int;    (** the edge's port at the other endpoint *)
  outward : bool;       (** the edge's orientation leaves the centre *)
  remote_label : 'a;
}

type 'a po_view = {
  center_label : 'a;
  incident : 'a po_edge list;  (** sorted by [port] *)
}

type ('a, 'o) po_algorithm = {
  po_name : string;
  po_decide : 'a po_view -> 'o;
}

val run_po :
  ('a, 'o) po_algorithm ->
  'a Labelled.t ->
  oriented:(int * int) list ->
  'o array
(** Run a radius-1 PO algorithm. Ports are the positions in the
    (sorted) adjacency lists; [oriented] lists each edge once as
    [(tail, head)].
    @raise Graph.Invalid_graph if [oriented] is not exactly an
    orientation of the edge set. *)

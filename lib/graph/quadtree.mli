(** Layered quadtrees — the "pyramid" of Appendix A (Figure 3).

    [build ~h] is the pyramid over a [2^h * 2^h] grid: levels
    [z = 0 .. h], level [z] being a [2^(h-z)] square grid, and each
    node [(x, y, z)] with [z < h] connected to [(x/2, y/2, z+1)].

    Nodes carry only *bounded* labels: the residues
    [(x mod 6, y mod 6, z mod 3)]. Mod 6 supplies both the grid
    orientation of Section 3.2 ({!dir6_between}) and the coordinate
    parity needed to check parent/child block alignment; mod-3 level
    residues let nodes tell apart adjacent layers. Absolute coordinates
    or levels are deliberately *not* included: they would leak the
    machine's running time to an Id-oblivious algorithm and destroy
    property (P3). *)

type coord3 = { x : int; y : int; z : int }

type label = { m6x : int; m6y : int; z3 : int }

val equal_label : label -> label -> bool
val pp_label : Format.formatter -> label -> unit

val label_of_coord : ?phase:int * int -> coord3 -> label
(** [phase] shifts the (x, y) origin. *)

type dir = Left | Right | Up | Down

val dir6_between : int * int -> int * int -> dir option
(** [dir6_between a b] is the direction in which the mod-6 position
    [b] lies next to [a] (x grows to the [Right], y grows [Down]), if
    the two positions are adjacent in exactly one direction; equal,
    diagonal or distant positions give [None]. The one orientation
    rule of the pyramid's base grid and of the execution table. *)

val side : h:int -> int
(** Grid side [2^h]. *)

val level_order : h:int -> int -> int
(** Number of nodes on level [z]. *)

val level_offset : h:int -> int -> int
(** Index of the first node of level [z]; level 0 (the base grid)
    comes first, in row-major order. *)

val order : h:int -> int
val index : h:int -> coord3 -> int
val coord_of_index : h:int -> int -> coord3

val build : h:int -> Graph.t
(** The pyramid graph (including the base grid's edges). *)

val labelled : ?phase:int * int -> h:int -> unit -> label Labelled.t

(** {1 Local structure rules}

    The radius-2 rules each node checks. A node is classified by the
    caller: base-grid nodes carry their own richer labels (table
    cells) from which a mod-6 position is derived; upper nodes carry
    {!label}s; anything else is foreign (e.g. the pivot of Section 3,
    handled by its own rules). *)

type classify = Bottom of int * int | Upper of label | Foreign

val inspect :
  classify:(int -> classify) -> Graph.t -> int -> string list
(** [inspect ~classify g v] returns the list of violated rules at [v]
    (empty for a structurally consistent node). The rules:
    + every edge is classifiable (sibling / parent / child) from the
      level residues;
    + sibling edges are consistently oriented (one per direction);
    + a node has exactly one parent, or is the apex (no parent, no
      siblings);
    + an upper node has exactly four children forming an oriented
      2x2 block with the correct parities, and is those children's
      unique parent;
    + grid-adjacent nodes have equal or adjacent parents as dictated
      by the coordinate parity;
    + a parent's mod-3 position is the halved child position. *)

val parent_of :
  classify:(int -> classify) -> Graph.t -> int -> int option
(** The unique parent-edge endpoint, if the node has exactly one. *)

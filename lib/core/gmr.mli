(** The Section 3 construction [G(M, r)] (Figure 2, Appendix A).

    [G(M, r)] consists of:
    - the pyramidal execution table [T^] of the halting machine [M]:
      the square execution table padded to a power-of-two side,
      carrying a layered quadtree;
    - the pyramidal fragment collection [C^]: syntactically possible
      table fragments, each with its own small pyramid, glued to the
      {e pivot} — the top-left table cell, the one where the head
      starts — by their non-natural border cells.

    Every node carries the universal label [(M, r)] plus its part
    (a table/fragment cell with bounded position residues, or a
    pyramid label).

    Scaling substitutions (documented in DESIGN.md): the fragment side
    defaults to 4 rather than the paper's [2^(3r)], the collection [C]
    is assembled from real-table windows, explicit fake-halt fragments
    and a capped syntactic enumeration rather than the full exponential
    enumeration, and anchor phases are optional. The obfuscation
    property that the deciders exercise — fragments showing halts with
    {e both} outputs are glued into every instance — is preserved
    exactly. *)

open Locald_graph
open Locald_turing

type part =
  | Cell of { cell : Cell.t; m6x : int; m6y : int }
  | Pyr of Quadtree.label

type label = {
  machine : Machine.t;
  r : int;
  part : part;
}

val equal_label : label -> label -> bool
val pp_label : Format.formatter -> label -> unit

val pivot_look : label -> bool
(** A blank cell carrying a state-0 head at position residue (0,0) —
    the locally recognisable signature of the pivot. Sound because no
    admissible machine re-enters state 0 ({!Machine.reenters_start})
    and the fragment enumeration excludes state-0 heads. *)

type provenance =
  | Table_base of int * int          (** (x, y) in the padded table *)
  | Table_pyr of Quadtree.coord3
  | Frag_base of int * int * int     (** (fragment, x, y) *)
  | Frag_pyr of int * Quadtree.coord3

type config = {
  fragment_side : int;     (** power of two; the paper uses [2^(3r)] *)
  fragment_cap : int;      (** cap on the syntactic enumeration *)
  max_heads_per_row : int; (** seed-row head bound of the enumeration *)
  all_phases : bool;       (** glue all aligned anchor phases of each fragment *)
  fuel : int;              (** execution fuel *)
}

val default_config : r:int -> config

type t = {
  config : config;
  machine : Machine.t;
  r : int;
  lg : label Labelled.t;
  provenance : provenance array;
  pivot : int;             (** node index of the pivot cell *)
  table_side : int;
  steps : int;
  output : int;
  fragments : Fragment.t list;  (** the glued collection *)
  truncated : bool;        (** the enumeration cap was hit *)
}

exception Not_admissible of string

val build : ?config:config -> r:int -> Machine.t -> (t, Exec.outcome) result
(** Build [G(M, r)]. [Error] if the machine does not halt within the
    fuel.
    @raise Not_admissible if the machine re-enters state 0 (the pivot
    signature would be ambiguous). *)

val order : t -> int
val size : t -> int

(** {1 The neighbourhood generator [B] (property (P3))} *)

val generator_views :
  ?config:config ->
  ?view_radius:int ->
  ?dedupe:bool ->
  r:int ->
  side_exp:int ->
  Machine.t ->
  label View.t list
(** [B(N, r)]: halts on {e every} machine [N]. Runs [N] for at most
    [2^side_exp - 2] steps, lays out the (possibly truncated) table of
    side [2^side_exp] with its pyramid and the glued fragments, and
    returns the radius-[r] views that avoid the truncation artefacts
    (the bottom table row, the rightmost table column and the table
    pyramid above level [r]). Views are deduplicated up to rooted
    isomorphism. *)

val views_covered :
  label View.t list -> by:label View.t list -> bool * int * int
(** [views_covered views ~by] — does every view occur (up to rooted
    labelled isomorphism, decided exactly at every view size) in [by]?
    Returns [(all, covered, total)]. [by] is collected into a
    {!Locald_runtime.Canon.classes} set. This is the (P3) coverage
    measurement. *)

val all_views : ?radius:int -> ?dedupe:bool -> t -> label View.t list
(** All views of a built [G(M, r)] at the given radius (default [r]),
    deduplicated up to rooted isomorphism (used by the (P3) coverage
    experiment and by the separation algorithm [R], which needs views
    at the horizon of the candidate algorithm it drives). *)

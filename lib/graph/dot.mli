(** Graphviz (DOT) export, for inspecting the constructions. *)

val of_graph : ?name:string -> Graph.t -> string

val of_labelled :
  ?name:string ->
  pp_label:(Format.formatter -> 'a -> unit) ->
  'a Labelled.t ->
  string
(** Node labels become DOT labels. *)

val of_view :
  ?name:string ->
  pp_label:(Format.formatter -> 'a -> unit) ->
  'a View.t ->
  string
(** The centre is highlighted; identifiers (when present) are shown,
    and reported to an installed monitor as one bulk id read. *)

(** Graphviz (DOT) export, for inspecting the constructions. *)

val of_labelled :
  pp_label:(Format.formatter -> 'a -> unit) -> 'a Labelled.t -> string
(** Node labels become DOT labels. *)

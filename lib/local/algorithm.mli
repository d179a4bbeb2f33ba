(** Local algorithms: functions of the radius-[t] view (Section 1.2).

    A general local algorithm sees the view {e including} the
    identifiers; an Id-oblivious algorithm is, by construction, a
    function of the identifier-free view, so obliviousness holds by
    typing rather than by promise. [of_oblivious] embeds the latter
    into the former (stripping the identifiers before deciding). *)

open Locald_graph

type ('a, 'o) t = {
  name : string;
  radius : int;
  decide : 'a View.t -> 'o;
}

type ('a, 'o) oblivious = {
  ob_name : string;
  ob_radius : int;
  ob_decide : 'a View.t -> 'o;
      (** Always called on views with [ids = None]. *)
}

val make : name:string -> radius:int -> ('a View.t -> 'o) -> ('a, 'o) t

val make_oblivious :
  name:string -> radius:int -> ('a View.t -> 'o) -> ('a, 'o) oblivious

val of_oblivious : ('a, 'o) oblivious -> ('a, 'o) t
(** Runs the oblivious algorithm in the full model by discarding the
    identifiers from every view. *)

val named : string -> ('a View.t -> 'o) -> 'a View.t -> 'o
(** [named name decide view] is [decide view], except that a
    {!Locald_graph.View.No_ids} escaping the decide is re-raised with
    its message prefixed by [name ^ ": "] — the accessor alone cannot
    know which algorithm was running. *)

val named_decide : ('a, 'o) t -> 'a View.t -> 'o
(** [named t.name t.decide]: how every engine calls a decide. *)

(** Promise problems (Section 1.2): only inputs satisfying the promise
    matter; a decider's behaviour outside the promise is unconstrained. *)

open Locald_graph

type 'a t = {
  name : string;
  promise : 'a Labelled.t -> bool;
  mem : 'a Labelled.t -> bool;  (** meaningful only under the promise *)
}

val make :
  name:string ->
  promise:('a Labelled.t -> bool) ->
  mem:('a Labelled.t -> bool) ->
  'a t

(** Randomised local algorithms (Section 3.3).

    Every node holds an unbounded stream of private random bits; an
    Id-oblivious randomised algorithm is a function of the
    identifier-free view and its own coin stream. The one instance is
    Corollary 1's [(1, 1-o(1))]-decider
    ([Gmr_deciders.corollary1_decider]): the [corollary1] experiment
    estimates its success rate through [Gmr_deciders.Fast.corollary1],
    and the [faults] experiment runs it under the fault engine. *)

open Locald_graph

type ('a, 'o) t = {
  name : string;
  radius : int;
  decide : Random.State.t -> 'a View.t -> 'o;
      (** The state is the node's private coin stream. *)
}

val make :
  name:string -> radius:int -> (Random.State.t -> 'a View.t -> 'o) -> ('a, 'o) t

val geometric : Random.State.t -> int
(** Number of tosses until the first head (at least 1): the [l_v] of
    Corollary 1's decider. *)

val four_pow_capped : cap:int -> int -> int
(** [4^l], saturating at [cap] — the [n_v := 4^l_v] fuel with an
    explicit overflow guard. *)

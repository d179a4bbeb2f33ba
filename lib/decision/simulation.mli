(** The Id-oblivious simulation [A*] (Section 1, "Id-oblivious
    simulation").

    [A*] outputs no on a view exactly when {e some} local identifier
    assignment makes [A] output no. Under [(not B, not C)] the
    existential search ranges over all of [N] and [A*] decides the same
    property as [A]; our executable version bounds the search by an
    explicit budget. The budget is itself part of the experiment: under
    [(B)] no budget can be right (identifiers leak [n], and the search
    cannot know [n]) — that failure is exactly the Section 2
    separation, and {!Locald_core} demonstrates it. *)

open Locald_local

type budget =
  | Exhaustive of int
      (** try every injective assignment of the view's nodes into
          [0 .. b-1] *)
  | Sampled of { bound : int; trials : int; seed : int }
      (** random injective assignments below [bound] *)

val a_star :
  budget:budget -> ('a, bool) Algorithm.t -> ('a, bool) Algorithm.oblivious
(** The simulated Id-oblivious algorithm: yes iff every assignment in
    the budget keeps [A] saying yes. On a view of [k] nodes it tries
    the budget's assignments in order and stops at the first no: an
    [Exhaustive] budget steps through the injections in lexicographic
    order ({!Locald_runtime.Orbit.for_all_injections}), a [Sampled] one
    draws from a generator seeded by [seed] and [k].
    @raise Ids.Invalid_ids when [k] exceeds the budget's bound. *)

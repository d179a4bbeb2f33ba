(** Identifier assignments [Id : V -> N] and the bounded-identifier
    regimes of assumption (B).

    An assignment is a one-to-one map from the nodes [0 .. n-1] to
    distinct non-negative integers. Under regime [(B)] with bound
    function [f], every valid input satisfies [Id(v) < f(n)] — the
    whole Section 2 separation rests on the fact that identifiers
    thereby leak information about [n]. *)

type t
(** An injective identifier assignment. *)

exception Invalid_ids of string

val of_array : int array -> t
(** @raise Invalid_ids if entries are negative or not distinct. *)

val to_array : t -> int array
val assign : t -> int -> int
val size : t -> int
val max_id : t -> int

val check_size : n:int -> t -> unit
(** The precondition every engine checks before running on an
    [n]-node graph.
    @raise Invalid_ids if the assignment's size differs from [n]. *)

val sequential : int -> t
(** [0, 1, ..., n-1]. *)

val shuffled : Random.State.t -> int -> t
(** A uniformly random permutation of [0 .. n-1]. *)

val random_below : Random.State.t -> bound:int -> int -> t
(** [n] distinct identifiers drawn uniformly from [0 .. bound-1].
    @raise Invalid_ids if [bound < n]. *)

val offset : t -> int -> t
(** Shift every identifier by a non-negative constant — the easy way
    to make "adversarially large" assignments under [(not B)]. *)

val injection_at : n:int -> bound:int -> int -> t
(** The assignment at a given rank of the lexicographic order of the
    [bound! / (bound-n)!] injective assignments of [n] nodes into
    [0 .. bound-1], computed by direct index arithmetic
    ({!Locald_runtime.Orbit.unrank}) — no enumeration. Sharded
    exhaustive runs address the id space through these ranks, and
    exhaustive searches step from rank 0 with
    {!Locald_runtime.Orbit.next_injection}.
    @raise Invalid_ids if the rank is outside [0, bound!/(bound-n)!)
    or [bound < n]. *)

(** {1 Bounded-identifier regimes} *)

type regime =
  | Unbounded
  | Bounded of { name : string; f : int -> int }
      (** Valid assignments satisfy [Id(v) < f n]; [f] must satisfy
          [f n >= n] and be monotone for the constructions to make
          sense (checked by {!respects}). *)

val respects : regime -> n:int -> t -> bool
(** Does the assignment satisfy the regime for an [n]-node graph? *)

val sample : Random.State.t -> regime -> n:int -> t
(** A random assignment valid under the regime: under [Bounded f],
    identifiers are drawn below [f n]; under [Unbounded], below a
    loose default window with a random offset. *)

val f_identity : regime
(** [f n = n]: identifiers are exactly a permutation-like packing. *)

val f_linear_plus : int -> regime
(** [f n = n + k]. *)

val f_square : regime
(** [f n = n^2 + 1]. *)

val f_oracle : seed:int -> regime
(** A strictly monotone bound function with no exploitable algebraic
    structure (a seeded pseudo-random monotone staircase) — the
    executable stand-in for an uncomputable [f] under [(B, not C)];
    see DESIGN.md, substitutions. *)

val pp : Format.formatter -> t -> unit

(** Decide-once memoisation: a concurrent table keyed by caller-hashed
    keys, and the read-adaptive decide cache ({!Trie}) that every
    prepared decide of [Locald_local.Runner] goes through. There is no
    switch to turn the decide cache off: it is transparent for the
    pure decides it is specified for, and the uncached reference is
    the direct engine ([Runner.run]), which test_decision's oracle
    folds over every assignment.

    The locality correspondence (Section 1.2) makes a node's output a
    function of its decorated ball — structure, labels and the id
    restriction — and, for a pure decide, of only the id values it
    reads. Exhaustive quantification over global assignments therefore
    repeats the same decides massively; these caches collapse the
    repetition to one decide per {e distinct} behaviour.

    {b Transparency contract}: for pure compute functions,
    [find_or_compute] is observationally identical to computing every
    time, at any [--jobs]. Hit/miss counters may race under parallel
    fan-out (two domains can both miss on a fresh key); the count of
    distinct stored keys is deterministic.

    Keys are hashed and compared exclusively through the caller-supplied
    functions — never with the polymorphic primitives. Outside
    [lib/runtime], constructing memo tables over decorated keys with
    [Hashtbl.hash] or structural compare is flagged by the
    [decorated-key] rule of [locald analyze]. *)

(** {1 Tables} *)

type ('k, 'v) t

val create :
  hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit -> ('k, 'v) t
(** An empty, unbounded table; [hash] must respect [equal]. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Return the cached value for an [equal] key, else compute, store and
    return it. A lookup takes the table's one mutex to fetch a bucket
    and calls [equal] outside it; a store takes it to re-check and
    insert. The compute function runs outside the lock (two domains may
    compute the same fresh key concurrently; the first store wins, both
    calls return its value, and the table never holds duplicate keys).
    Counts into [memo.hits] or [memo.misses], and the compute runs
    under a [memo.compute] span. *)

(** {1 Run-scoped counters}

    Aggregated over every table into the ambient telemetry run — what
    [locald --stats] and the bench JSON report. Tables keep no counts
    of their own.
    [Telemetry.new_run ()] starts an independent tally (the bench
    harness does this between workloads). *)

type stats = {
  hits : int;      (** lookups answered from a table *)
  misses : int;    (** lookups that computed *)
  distinct : int;  (** keys and decide-cache leaves stored *)
}

val run_stats : unit -> stats

val note_hits : int -> unit
val note_misses : int -> unit
val note_distincts : int -> unit
(** Add to the run-scoped counters directly — for decide-once caches
    that count their own hits and misses (the decide tasks of
    [Locald_local.Runner], and caches on hot verdict loops), which
    tally locally and flush once per task or run. *)

(** {1 Label-component hashing}

    The designated way to hash / compare the {e label} components of a
    decorated key outside [lib/runtime]. These are the structural
    primitives, re-exported so that every use is mediated by this
    module (and by [View.fingerprint] / [View.equal_repr] for the view
    part) — raw [Hashtbl.hash] or polymorphic compare on decorated keys
    elsewhere is flagged by the [decorated-key] rule of
    [locald analyze]. *)

val structural_hash : 'a -> int
val structural_equal : 'a -> 'a -> bool

(** {1 The read-adaptive decide cache}

    One trie per node of a prepared instance. A branch tests one slot
    of the ball restriction, a leaf holds a decide's output: a decide
    that read slots [s1, s2, ...] (in first-read order) of a
    restriction [r] is stored along the path [r.(s1), r.(s2), ...], and
    any restriction that agrees on those slots walks to it. Sound for
    pure decides whose id reads all go through [View]'s monitored
    accessors (DESIGN.md §3e).

    Trie nodes are immutable and each node's root is published through
    an [Atomic.t]: a lookup racing a store or an eviction reads the old
    root or the new one, and may decide again or find a dropped leaf,
    both transparent for pure decides. *)
module Trie : sig
  type 'v t

  val create : ?capacity:int -> int -> 'v t
  (** [create ?capacity nodes] is an empty cache with one trie per
      node [0 .. nodes - 1]. [capacity] (default unbounded) bounds the
      stored leaves: a store that would pass it first drops every
      node's trie, adding the dropped leaves to [memo.evictions]. *)

  val find : 'v t -> int -> int array -> 'v
  (** [find t node r] is the output stored on [node]'s path through
      the restriction [r] ([r.(i)] decorates view slot [i]). [r] may
      be a scratch buffer: it is neither retained nor copied. Takes no
      lock, allocates nothing and counts nothing.
      @raise Not_found when no stored decide agrees with [r] on the
      slots it read. *)

  val store : 'v t -> int -> int array -> reads:int array -> 'v -> unit
  (** [store t node r ~reads v] records that a decide of [node] under
      [r], which read the distinct slots [reads] in that order,
      returned [v]. It path-copies under one mutex after re-walking
      the current trie, and stores nothing when a leaf already covers
      [r] (another domain stored first; its binding stays) or when
      [reads] leaves the stored branches (an impure decide). [r] is
      read, not retained. A store counts into [memo.distinct]. *)
end

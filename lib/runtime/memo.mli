(** Decide-once memoisation: sharded concurrent tables keyed by
    decorated-ball keys.

    The locality correspondence (Section 1.2) makes a node's output a
    function of its decorated ball — structure, labels and the id
    restriction. Exhaustive quantification over global assignments
    therefore repeats the same decides massively; these tables collapse
    the repetition to one decide per {e distinct} key.

    {b Transparency contract}: for pure compute functions,
    [find_or_compute] is observationally identical to computing every
    time — results are byte-identical with the memo on or off and at
    any [--jobs]. Hit/miss counters may race under parallel fan-out
    (two domains can both miss on a fresh key); the count of distinct
    stored keys is deterministic.

    {b Concurrency}: lookups take no lock and allocate nothing; stores,
    eviction and growth take the key's shard lock. A lookup racing a
    store may miss the new key and recompute it (the first stored
    binding stays), and one racing an eviction may still find the
    evicted binding — both transparent for pure computes.

    Keys are hashed and compared exclusively through the caller-supplied
    functions — never with the polymorphic primitives. Outside
    [lib/runtime], constructing memo tables over decorated keys with
    [Hashtbl.hash] or structural compare is flagged by the
    [decorated-key] rule of [locald analyze]. *)

(** Whether the decide-once entry points memoise. Both modes give
    byte-identical results for every pure decider. *)
type mode =
  | Off  (** no memoisation: every decide recomputes *)
  | Exact_ids
      (** keys carry the exact restricted ids (the default) *)

val mode_to_string : mode -> string

val mode_of_string : string -> mode option
(** Accepts ["off"] and ["exact"]/["exact-ids"], case- and
    whitespace-insensitively. *)

(** {1 Tables} *)

type ('k, 'v) t

val create :
  ?shards:int ->
  ?capacity:int ->
  hash:('k -> int) -> equal:('k -> 'k -> bool) -> unit ->
  ('k, 'v) t
(** [shards] (rounded up to a power of two, default 16) shards, each
    a lock for writers and a slot array that doubles as it fills;
    [hash] must respect [equal].

    [capacity] bounds the number of live entries (split evenly across
    shards, at least 2 per shard). When a shard fills, the {e older
    half} of its entries (by insertion stamp) is dropped in one sweep —
    amortised O(1) per store, and the right recency proxy for
    enumeration workloads that revisit keys in waves. Omitting
    [capacity] keeps the table unbounded (the one-shot CLI behaviour);
    the serve daemon always bounds its cross-request tables. Eviction
    never breaks the transparency contract — a dropped key simply
    recomputes, and [distinct] then counts stores rather than unique
    keys. *)

val find_or_compute : ('k, 'v) t -> 'k -> (unit -> 'v) -> 'v
(** Return the cached value for an [equal] key, else compute, store and
    return it. The lookup takes no lock; the compute function runs
    outside the shard lock (two domains may compute the same fresh key
    concurrently; the first store wins and the table never holds
    duplicate keys). Counts into [memo.hits] or [memo.misses], and the
    compute runs under a [memo.compute] span. *)

val add : ('k, 'v) t -> 'k -> 'v -> unit
(** Store a binding unless an [equal] key is already stored; the key
    is retained. Counts nothing but [memo.distinct] (and evictions):
    callers that probe with {!find_node_ids} count their own hits and
    misses. *)

val size : ('k, 'v) t -> int
(** Live entries, summed over shards without taking their locks — a
    monitoring snapshot, which with a [capacity] never exceeds it
    (a full shard evicts before it stores). *)

val evictions : ('k, 'v) t -> int
(** Entries dropped by capacity eviction over this table's lifetime. *)

(** {1 Run-scoped counters}

    Aggregated over every table into the ambient telemetry run — what
    [locald --stats] and the bench JSON report. Tables keep no counts
    of their own beyond {!evictions}.
    [Telemetry.new_run ()] starts an independent tally (the bench
    harness does this between workloads). *)

type stats = {
  hits : int;      (** lookups answered from a table *)
  misses : int;    (** lookups that computed *)
  distinct : int;  (** keys stored (deterministic for unbounded tables) *)
}

val run_stats : unit -> stats

val note_hits : int -> unit
val note_misses : int -> unit
val note_distincts : int -> unit
(** Add to the run-scoped counters directly — for decide-once caches
    that count outside this module's tables (the decide probes and the
    read-adaptive restriction scanner in [Locald_local.Runner], and
    caches on hot verdict loops), which tally locally and flush once
    per task or run. *)

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

(** {1 The standard decide-once key}

    A node index plus the id restriction of its ball. *)

val hash_node_ids : int * int array -> int
val equal_node_ids : int * int array -> int * int array -> bool

val create_node_ids :
  ?shards:int -> ?capacity:int -> unit -> (int * int array, 'v) t

val find_node_ids : (int * int array, 'v) t -> int -> int array -> 'v
(** [find_node_ids t node ids] is the value stored for the key
    [(node, ids)] in a table made by {!create_node_ids}, found without
    building the key: [ids] may be a scratch buffer, and is neither
    retained nor copied. Takes no lock, allocates nothing and counts
    nothing.
    @raise Not_found when no such key is stored. *)

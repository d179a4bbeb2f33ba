(* Decide-once memoisation: a sharded concurrent table for generic
   keys, and the read-adaptive decide cache every decide path of
   [Locald_local.Runner] goes through.

   The table maps caller-hashed keys (certify's simulation cache, the
   tree coverage's apex cache) to computed values. Shards are selected
   by key hash. Each shard is a mutex plus a power-of-two array of
   immutable bucket lists, published through an [Atomic.t]; collisions
   are resolved by the caller's equality (the polymorphic primitives
   are never applied to keys, which is also what the [decorated-key]
   analyze rule enforces outside this library).

   Reads take no lock and allocate nothing: they load the shard's array
   and walk one bucket. Stores, eviction and growth run under the shard
   lock and never mutate a bucket cell; they write a new list head into
   a slot, or publish a new array. A racy slot read therefore sees
   either the old list or the new one. OCaml 5's memory model makes an
   immutable block reached through any read, racy or not, fully
   initialised, so a reader never sees a half-built cell. A reader that
   sees the old list misses the new key and recomputes it; the store's
   re-check under the lock then keeps the first binding.

   Semantic transparency contract: [find_or_compute t k f] returns a
   value [f ()] returned on some call with an [equal]-equal key. For
   pure [f] the result is indistinguishable from calling [f] every
   time — digests are byte-identical with the memo on or off, at any
   job count. Hit/miss totals may race under parallel fan-out (two
   domains can miss on the same key); the number of distinct keys
   stored is deterministic. The decide cache ([Trie], at the end of
   this file) keeps the same discipline with per-node tries in place
   of buckets. *)

type mode = Off | Exact_ids

let mode_to_string = function Off -> "off" | Exact_ids -> "exact"

let mode_of_string s =
  match String.trim (String.lowercase_ascii s) with
  | "off" -> Some Off
  | "exact" | "exact-ids" -> Some Exact_ids
  | _ -> None

type stats = { hits : int; misses : int; distinct : int }

(* Run-scoped counters, aggregated over every table: what
   [locald --stats] and the bench JSON report. They live in the ambient
   telemetry run, so [Telemetry.new_run] gives each bench workload an
   independent tally instead of a cumulative one. *)
let c_hits = Telemetry.Counter.make "memo.hits"
let c_misses = Telemetry.Counter.make "memo.misses"
let c_distinct = Telemetry.Counter.make "memo.distinct"
let c_evictions = Telemetry.Counter.make "memo.evictions"

let run_stats () =
  {
    hits = Telemetry.Counter.get c_hits;
    misses = Telemetry.Counter.get c_misses;
    distinct = Telemetry.Counter.get c_distinct;
  }

(* For decide-once caches that count their own hits and misses (the
   decide tasks of [Locald_local.Runner], Gmr_deciders' coin-draw
   cache) but report into the same run-scoped tallies. Hot loops tally
   locally and flush once per task or run, so these are bulk adds. *)
let note_hits n = Telemetry.Counter.add c_hits n
let note_misses n = Telemetry.Counter.add c_misses n
let note_distincts n = Telemetry.Counter.add c_distinct n

type ('k, 'v) bucket =
  | Nil
  | Cons of {
      key : 'k;
      hash : int;  (* the scrambled hash, so growth never rehashes a key *)
      value : 'v;
      stamp : int;  (* insertion order, for eviction *)
      next : ('k, 'v) bucket;
    }

type ('k, 'v) shard = {
  lock : Mutex.t;
  (* Slots are written, and the array replaced by a larger one, only
     under [lock]; readers load it without. *)
  slots : ('k, 'v) bucket array Atomic.t;
  mutable tick : int;  (* stamps handed out so far, under [lock] *)
  mutable count : int; (* live entries, under [lock] *)
}

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  mask : int;
  shift : int;  (* log2 of the shard count: slot bits sit above it *)
  (* Per-shard entry bound; [max_int] when the table is unbounded. *)
  cap : int;
  shards : ('k, 'v) shard array;
  s_evictions : int Atomic.t;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2)

let initial_slots = 64

let create ?(shards = 16) ?capacity ~hash ~equal () =
  let count = pow2_at_least (max 1 shards) 1 in
  let cap =
    match capacity with
    | None -> max_int
    (* Never below 2 per shard, or eviction would thrash the very entry
       that was just stored. *)
    | Some c -> max 2 (max 1 c / count)
  in
  {
    hash;
    equal;
    mask = count - 1;
    shift = log2 count;
    cap;
    shards =
      Array.init count (fun _ ->
          {
            lock = Mutex.create ();
            slots = Atomic.make (Array.make initial_slots Nil);
            tick = 0;
            count = 0;
          });
    s_evictions = Atomic.make 0;
  }

let evictions t = Atomic.get t.s_evictions

(* A snapshot, not a fence: shard counts are read without their locks,
   so a concurrent store can be missed — fine for the monitoring and
   test uses this serves. *)
let size t = Array.fold_left (fun acc s -> acc + s.count) 0 t.shards

(* Callers' hashes can be weak in the low bits; a multiply and a fold
   bring every input bit down to the bits that pick the shard and the
   slot. *)
let scramble h =
  let h = h * 0x2545f4914f6cdd1d in
  (h lxor (h lsr 31)) land max_int

let shard_of t h = t.shards.(h land t.mask)

let slot_of t h slots = (h lsr t.shift) land (Array.length slots - 1)

let bucket t shard h =
  let slots = Atomic.get shard.slots in
  slots.(slot_of t h slots)

let rec find_in equal key h = function
  | Nil -> raise_notrace Not_found
  | Cons c ->
      if c.hash = h && equal key c.key then c.value
      else find_in equal key h c.next

(* Drop the older half of a full shard, by insertion stamp. Must run
   under the shard lock. Halving (rather than evicting one) keeps the
   amortised cost O(1) per store: a full scan every cap/2 insertions.
   Recency here is insertion order, not access order — cheaper than
   LRU stamping on every hit, and the enumeration workloads revisit
   keys in waves for which insertion order is the right proxy. Kept
   tails are shared, dropped cells are rebuilt around. *)
let evict_older_half t shard =
  let cutoff = shard.tick - max 1 (t.cap / 2) in
  let dropped = ref 0 in
  let rec keep = function
    | Nil -> Nil
    | Cons c as b ->
        let next = keep c.next in
        if c.stamp <= cutoff then begin
          incr dropped;
          next
        end
        else if next == c.next then b
        else Cons { c with next }
  in
  let slots = Atomic.get shard.slots in
  Array.iteri (fun i b -> slots.(i) <- keep b) slots;
  shard.count <- shard.count - !dropped;
  Atomic.fetch_and_add t.s_evictions !dropped |> ignore;
  Telemetry.Counter.add c_evictions !dropped

(* Double the slot array once the shard averages two entries a slot.
   Readers holding the old array keep walking valid (old) lists. *)
let grow t shard =
  let old = Atomic.get shard.slots in
  let slots = Array.make (2 * Array.length old) Nil in
  let rec move = function
    | Nil -> ()
    | Cons c ->
        let i = slot_of t c.hash slots in
        slots.(i) <- Cons { c with next = slots.(i) };
        move c.next
  in
  Array.iter move old;
  Atomic.set shard.slots slots

(* Store unless an [equal] key is already there (a sibling domain may
   have stored it while we computed), so the table never holds
   duplicates and [distinct] — stored bindings — is deterministic for
   an unbounded table (with a capacity, an evicted key can be stored
   again, so [distinct] counts stores). Eviction runs before the store,
   so the live count never exceeds the cap, even transiently. *)
let store t key h v =
  let shard = shard_of t h in
  Mutex.protect shard.lock @@ fun () ->
  match find_in t.equal key h (bucket t shard h) with
  | _ -> ()
  | exception Not_found ->
      if shard.count >= t.cap then evict_older_half t shard;
      let slots = Atomic.get shard.slots in
      let i = slot_of t h slots in
      shard.tick <- shard.tick + 1;
      slots.(i) <-
        Cons { key; hash = h; value = v; stamp = shard.tick; next = slots.(i) };
      shard.count <- shard.count + 1;
      Telemetry.Counter.incr c_distinct;
      if shard.count > 2 * Array.length slots then grow t shard

let find_or_compute t key compute =
  let h = scramble (t.hash key) in
  match find_in t.equal key h (bucket t (shard_of t h) h) with
  | v ->
      Telemetry.Counter.incr c_hits;
      v
  | exception Not_found ->
      Telemetry.Counter.incr c_misses;
      (* The compute is the span-worthy part of a memoised lookup: one
         per distinct work item actually performed. *)
      let v = Telemetry.span "memo.compute" compute in
      store t key h v;
      v

(* ------------------------------------------------------------------ *)
(* Decoration-key helpers                                              *)
(* ------------------------------------------------------------------ *)

(* The structural primitives, re-exported: label components of
   decorated keys outside lib/runtime hash and compare through these
   (mediated by View.fingerprint / View.equal_repr for the view part)
   rather than through raw Hashtbl.hash / polymorphic compare, which
   the decorated-key analyze rule flags. *)
let structural_hash x = Hashtbl.hash x
let structural_equal a b = a = b

(* ------------------------------------------------------------------ *)
(* The read-adaptive decide cache                                      *)
(* ------------------------------------------------------------------ *)

(* A decide's output on a fixed ball depends on the restriction only
   through the id values it reads, so each node has a trie that
   branches on the slots it read, in first-read order (memo.mli). The
   concurrency is the table's with a root per node in place of a
   bucket array: lookups load a root and walk immutable nodes; stores
   path-copy under the one lock and publish the new root. *)
module Trie = struct
  type 'v node =
    | Empty
    | Leaf of 'v
    | Branch of { slot : int; keys : int array; kids : 'v node array }

  type 'v t = {
    roots : 'v node Atomic.t array;
    lock : Mutex.t;
    cap : int;
    mutable leaves : int;  (* under [lock] *)
  }

  let create ?capacity nodes =
    {
      roots = Array.init nodes (fun _ -> Atomic.make Empty);
      lock = Mutex.create ();
      cap = (match capacity with None -> max_int | Some c -> max 1 c);
      leaves = 0;
    }

  (* The index of [x] among a branch's keys, or -1. A branch has at
     most one key per id value the decide saw in its slot. *)
  let rec index (keys : int array) x i =
    if i = Array.length keys then -1
    else if keys.(i) = x then i
    else index keys x (i + 1)

  let rec walk node (r : int array) =
    match node with
    | Leaf v -> v
    | Empty -> raise_notrace Not_found
    | Branch b ->
        let i = index b.keys r.(b.slot) 0 in
        if i < 0 then raise_notrace Not_found else walk b.kids.(i) r

  let find t node r = walk (Atomic.get t.roots.(node)) r

  (* The path of a decide that read [reads.(i ..)] of [r]. *)
  let rec chain (r : int array) reads i v =
    if i = Array.length reads then Leaf v
    else
      let s = reads.(i) in
      Branch { slot = s; keys = [| r.(s) |]; kids = [| chain r reads (i + 1) v |] }

  (* [node] with the path of [reads.(i ..)] grafted in, copied from
     here down; [Exit] when the path meets a leaf or leaves the stored
     branches. *)
  let rec graft node r reads i v =
    match node with
    | Empty -> chain r reads i v
    | Leaf _ -> raise_notrace Exit
    | Branch b ->
        if i = Array.length reads || reads.(i) <> b.slot then raise_notrace Exit;
        let x = r.(b.slot) in
        let j = index b.keys x 0 in
        if j >= 0 then begin
          let kids = Array.copy b.kids in
          kids.(j) <- graft b.kids.(j) r reads (i + 1) v;
          Branch { b with kids }
        end
        else
          Branch
            {
              b with
              keys = Array.append b.keys [| x |];
              kids = Array.append b.kids [| chain r reads (i + 1) v |];
            }

  let store t node r ~reads v =
    Mutex.protect t.lock @@ fun () ->
    match graft (Atomic.get t.roots.(node)) r reads 0 v with
    | exception Exit -> ()
    | root ->
        if t.leaves >= t.cap then begin
          Array.iter (fun a -> Atomic.set a Empty) t.roots;
          Telemetry.Counter.add c_evictions t.leaves;
          t.leaves <- 0;
          Atomic.set t.roots.(node) (chain r reads 0 v)
        end
        else Atomic.set t.roots.(node) root;
        t.leaves <- t.leaves + 1;
        Telemetry.Counter.incr c_distinct
end

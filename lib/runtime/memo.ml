(* Decide-once memoisation: a sharded concurrent table for the
   enumeration kernel.

   The table maps decoration keys (a node index plus the id restriction
   of the ball) to decide outputs, so quantifying over n! global
   assignments performs work proportional to the number of *distinct*
   decorated balls actually seen. Shards are selected by key hash. Each
   shard is a mutex plus a power-of-two array of immutable bucket lists,
   published through an [Atomic.t]; collisions are resolved by the
   caller's equality (the polymorphic primitives are never applied to
   keys, which is also what the [decorated-key] analyze rule enforces
   outside this library).

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
   pure [f] (all the repo's deciders on a fixed view) the result is
   indistinguishable from calling [f] every time — digests are
   byte-identical with the memo on or off, at any job count. Hit/miss
   totals may race under parallel fan-out (two domains can miss on the
   same key); the number of distinct keys stored is deterministic. *)

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

(* For decide-once caches that count outside this module's tables
   (the read-adaptive scanner and the decide probes in
   [Locald_local.Runner], Gmr_deciders' coin-draw cache) but report
   into the same run-scoped tallies. Hot loops tally locally and flush
   once per task or run, so these are bulk adds. *)
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

(* Callers' hashes can be weak in the low bits (the node-ids hash is a
   polynomial in small ids); a multiply and a fold bring every input
   bit down to the bits that pick the shard and the slot. *)
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

let add t key v = store t key (scramble (t.hash key)) v

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

(* The standard key shape for decide-once memoisation: a node index
   plus the id restriction to its ball. *)

let mix_int h x = ((h * 131) + x) land max_int

let hash_parts node (ids : int array) =
  let h = ref (mix_int 0x2545f491 node) in
  for i = 0 to Array.length ids - 1 do
    h := mix_int !h ids.(i)
  done;
  !h

let hash_node_ids (node, ids) = hash_parts node ids

(* Top-level loops, not local closures: a probe must allocate nothing. *)
let rec equal_from (a : int array) (b : int array) i =
  i < 0 || (a.(i) = b.(i) && equal_from a b (i - 1))

let equal_parts na (a : int array) nb (b : int array) =
  na = nb
  && Array.length a = Array.length b
  && equal_from a b (Array.length a - 1)

let equal_node_ids (na, a) (nb, b) = equal_parts na a nb b

let rec find_parts node ids h = function
  | Nil -> raise_notrace Not_found
  | Cons c ->
      let nb, b = c.key in
      if c.hash = h && equal_parts node ids nb b then c.value
      else find_parts node ids h c.next

let find_node_ids t node ids =
  let h = scramble (hash_parts node ids) in
  find_parts node ids h (bucket t (shard_of t h) h)

let create_node_ids ?shards ?capacity () =
  create ?shards ?capacity ~hash:hash_node_ids ~equal:equal_node_ids ()

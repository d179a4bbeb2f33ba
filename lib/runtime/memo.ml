(* Decide-once memoisation: a sharded concurrent table for the
   enumeration kernel.

   The table maps decoration keys (a node index plus the id restriction
   of the ball) to decide outputs, so quantifying over n! global
   assignments performs work proportional to the number of *distinct*
   decorated balls actually seen. Shards are
   selected by key hash; each shard is a mutex plus an association
   bucket table keyed by the caller's hash (collisions resolved by the
   caller's equality — the polymorphic primitives are never applied to
   keys, which is also what the [decorated-key] analyze rule enforces
   outside this library).

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

(* For decide-once caches that live outside this module's tables (the
   read-adaptive scanner in [Locald_local.Runner]) but report into the
   same run-scoped tallies. *)
let note_hit () = Telemetry.Counter.incr c_hits
let note_miss () = Telemetry.Counter.incr c_misses
let note_distinct () = Telemetry.Counter.incr c_distinct

(* Bulk variants: per-draw atomic increments are measurable on caches
   sitting inside million-iteration verdict loops (Fast.corollary1),
   so those tally locally and flush once per run. *)
let note_hits n = Telemetry.Counter.add c_hits n
let note_misses n = Telemetry.Counter.add c_misses n
let note_distincts n = Telemetry.Counter.add c_distinct n

type ('k, 'v) shard = {
  lock : Mutex.t;
  (* hash -> (key, value, insertion stamp) bucket; the int key is the
     caller's hash, the stamp orders entries for eviction *)
  table : (int, ('k * 'v * int) list ref) Hashtbl.t;
  mutable tick : int;  (* stamps handed out so far, under [lock] *)
  mutable count : int; (* live entries, under [lock] *)
}

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  mask : int;
  (* Per-shard entry bound; [max_int] when the table is unbounded. *)
  cap : int;
  shards : ('k, 'v) shard array;
  s_evictions : int Atomic.t;
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

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
    cap;
    shards =
      Array.init count (fun _ ->
          { lock = Mutex.create (); table = Hashtbl.create 64;
            tick = 0; count = 0 });
    s_evictions = Atomic.make 0;
  }

let evictions t = Atomic.get t.s_evictions

(* A snapshot, not a fence: shard counts are read without their locks,
   so a concurrent store can be missed — fine for the monitoring and
   test uses this serves. *)
let size t = Array.fold_left (fun acc s -> acc + s.count) 0 t.shards

let bucket_find equal key bucket =
  let rec go = function
    | [] -> None
    | (k, v, _) :: rest -> if equal key k then Some v else go rest
  in
  go bucket

(* Drop the older half of a full shard, by insertion stamp. Must run
   under the shard lock. Halving (rather than evicting one) keeps the
   amortised cost O(1) per store: a full scan every cap/2 insertions.
   Recency here is insertion order, not access order — cheaper than
   LRU stamping on every hit, and the enumeration workloads revisit
   keys in waves for which insertion order is the right proxy. *)
let evict_older_half t shard =
  let cutoff = shard.tick - max 1 (t.cap / 2) in
  let dropped = ref 0 in
  Hashtbl.filter_map_inplace
    (fun _ bucket ->
      let kept = List.filter (fun (_, _, stamp) -> stamp > cutoff) !bucket in
      match kept with
      | [] ->
          dropped := !dropped + List.length !bucket;
          None
      | _ ->
          dropped := !dropped + (List.length !bucket - List.length kept);
          bucket := kept;
          Some bucket)
    shard.table;
  shard.count <- shard.count - !dropped;
  Atomic.fetch_and_add t.s_evictions !dropped |> ignore;
  Telemetry.Counter.add c_evictions !dropped

let store_under_lock t shard h key v =
  shard.tick <- shard.tick + 1;
  let entry = (key, v, shard.tick) in
  (match Hashtbl.find_opt shard.table h with
  | Some b -> b := entry :: !b
  | None -> Hashtbl.replace shard.table h (ref [ entry ]));
  shard.count <- shard.count + 1;
  Telemetry.Counter.incr c_distinct;
  if shard.count > t.cap then evict_older_half t shard

let find_or_compute t key compute =
  let h = t.hash key land max_int in
  let shard = t.shards.(h land t.mask) in
  Mutex.lock shard.lock;
  let found =
    match Hashtbl.find_opt shard.table h with
    | None -> None
    | Some b -> bucket_find t.equal key !b
  in
  Mutex.unlock shard.lock;
  match found with
  | Some v ->
      Telemetry.Counter.incr c_hits;
      v
  | None ->
      Telemetry.Counter.incr c_misses;
      (* The compute is the span-worthy part of a memoised lookup: one
         per distinct work item actually performed. *)
      let v = Telemetry.span "memo.compute" compute in
      Mutex.lock shard.lock;
      (* Re-check under the lock: a sibling domain may have stored the
         key while we were computing. Keep the first stored binding so
         the table never holds duplicates — [distinct] counts stored
         bindings and is therefore deterministic for an unbounded
         table (with a capacity, an evicted key can be re-stored, so
         [distinct] counts stores). *)
      (match Hashtbl.find_opt shard.table h with
      | Some b when Option.is_some (bucket_find t.equal key !b) -> ()
      | _ -> store_under_lock t shard h key v);
      Mutex.unlock shard.lock;
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

let hash_node_ids (node, (ids : int array)) =
  let h = ref (mix_int 0x2545f491 node) in
  Array.iter (fun x -> h := mix_int !h x) ids;
  !h

let equal_node_ids (na, (a : int array)) (nb, (b : int array)) =
  na = nb
  && Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

let create_node_ids ?shards ?capacity () =
  create ?shards ?capacity ~hash:hash_node_ids ~equal:equal_node_ids ()

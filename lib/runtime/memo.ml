(* Decide-once memoisation: a concurrent table for generic keys, and
   the read-adaptive decide cache every prepared decide of
   [Locald_local.Runner] goes through.

   The table maps caller-hashed keys (certify's simulation cache, the
   tree coverage's apex cache) to computed values: one hash table of
   buckets indexed by the caller's hash, each bucket a list of
   (key, value) pairs told apart by the caller's equality (the
   polymorphic primitives are never applied to keys, which is also what
   the [decorated-key] analyze rule enforces outside this library).
   One mutex guards the hash table; both callers look up a few tens of
   thousands of keys a run, so the lock is never the cost. A lookup
   holds it only to fetch a bucket, and compares keys outside it. The
   compute runs outside the lock, and a store re-checks under it, so
   the first binding of a key stays and the table never holds
   duplicates.

   Semantic transparency contract: [find_or_compute t k f] returns a
   value [f ()] returned on some call with an [equal]-equal key. For
   pure [f] the result is indistinguishable from calling [f] every
   time, at any job count. Hit/miss totals may race under parallel
   fan-out (two domains can miss on the same key); the number of
   distinct keys stored is deterministic. *)

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

type ('k, 'v) t = {
  hash : 'k -> int;
  equal : 'k -> 'k -> bool;
  lock : Mutex.t;
  buckets : (int, ('k * 'v) list) Hashtbl.t;  (* by caller hash, under [lock] *)
}

let create ~hash ~equal () =
  { hash; equal; lock = Mutex.create (); buckets = Hashtbl.create 64 }

(* The bucket of [h]; the caller holds the lock. *)
let bucket t h = Option.value (Hashtbl.find_opt t.buckets h) ~default:[]

(* The value bound to [key] in a bucket. Buckets are immutable lists,
   so the caller's equality, which may walk a large key, runs outside
   the lock. *)
let bound t key bucket =
  List.find_map (fun (k, v) -> if t.equal key k then Some v else None) bucket

let find_or_compute t key compute =
  let h = t.hash key in
  match bound t key (Mutex.protect t.lock (fun () -> bucket t h)) with
  | Some v ->
      Telemetry.Counter.incr c_hits;
      v
  | None -> (
      Telemetry.Counter.incr c_misses;
      (* The compute is the span-worthy part of a memoised lookup: one
         per distinct work item actually performed. *)
      let v = Telemetry.span "memo.compute" compute in
      Mutex.protect t.lock @@ fun () ->
      let b = bucket t h in
      match bound t key b with
      | Some first -> first
      | None ->
          Hashtbl.replace t.buckets h ((key, v) :: b);
          Telemetry.Counter.incr c_distinct;
          v)

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
   branches on the slots it read, in first-read order (memo.mli).

   Lookups take no lock: they load a node's root from its [Atomic.t]
   and walk immutable trie nodes. Stores path-copy under the one lock
   and publish the new root, never mutating a published node. OCaml
   5's memory model makes an immutable block reached through any read
   fully initialised, so a reader sees the old trie or the new one,
   never a half-built node. *)
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

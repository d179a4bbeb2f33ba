(* Canonical keys for rooted labelled views, with a memo table.

   A key packages (a) the iso-invariant refinement fingerprint and (b),
   whenever the 1-WL refinement of the view is discrete (every vertex
   its own colour), an exact canonical form. Both come from one call of
   [Iso.view_refinement], the kernel behind [Iso.view_signature], so
   the fingerprint is that signature by construction. A discrete
   colouring is numbered 0..n-1, so it is the vertices' rank in the
   form: centre rank, labels in rank order, and each edge a < b as the
   int a * n + b, ascending. Two views with discrete refinements are
   isomorphic iff their forms are equal, so the expensive backtracking
   test reduces to a linear comparison; when either refinement is not
   discrete,
   [equivalent] falls back transparently to [Iso.views_isomorphic] —
   cache and canonicalisation can never change an answer, only the
   route to it.

   The fingerprint is a weak bucket key exactly where the exact route
   applies: a discrete refinement is renumbered 0..n-1, so its colour
   multiset is the same for every view of that order, and the
   fingerprint carries only (centre rank, order, size). Bucketing
   thousands of distinct discrete views by fingerprint therefore makes
   deduplication quadratic. [classes] is the set that keeps it linear:
   exact keys are bucketed by a hash of their canonical form, every
   other key by (fingerprint, order, size).

   The memo table keys computed keys by a structural digest of the raw
   view (collisions resolved by [View.equal_repr]), so canonicalising
   an equal extraction twice is a hash lookup. It only pays when a
   caller really re-extracts equal views; a caller that keys each view
   once should create the table with [~cache:false], or the memo just
   retains every view. All [t] entry points are thread-safe: the table
   is mutex-guarded and the run's counters are atomics, because keys
   are typically computed under [Pool.map]. *)

open Locald_graph

type stats = { hits : int; misses : int; exact : int; fallback : int }

(* Run-scoped counters, summed over every table: what [locald --stats]
   and the bench JSON report without having to thread table handles out
   of the decision layers. They live in the ambient telemetry run, so
   [Telemetry.new_run] restarts the tally. *)
let g_hits = Telemetry.Counter.make "canon.hits"
let g_misses = Telemetry.Counter.make "canon.misses"
let g_exact = Telemetry.Counter.make "canon.exact"
let g_fallback = Telemetry.Counter.make "canon.fallback"

let run_stats () =
  {
    hits = Telemetry.Counter.get g_hits;
    misses = Telemetry.Counter.get g_misses;
    exact = Telemetry.Counter.get g_exact;
    fallback = Telemetry.Counter.get g_fallback;
  }

type 'a form = {
  f_center : int;
  f_labels : 'a array;
  f_edges : int array;  (* each edge a < b as a * n + b, ascending *)
  f_hash : int;  (* of the three fields above, labels through [label_hash] *)
}

type 'a key = {
  k_fingerprint : int;
  k_order : int;
  k_size : int;
  k_form : 'a form option;
  k_view : 'a View.t;
}

type 'a t = {
  label_hash : 'a -> int;
  label_equal : 'a -> 'a -> bool;
  use_cache : bool;
  memo : (int, ('a View.t * 'a key) list ref) Hashtbl.t;
  lock : Mutex.t;
}

let create ?(cache = true) ?(hash = Hashtbl.hash) ~equal () =
  {
    label_hash = hash;
    label_equal = equal;
    use_cache = cache;
    memo = Hashtbl.create 256;
    lock = Mutex.create ();
  }

let fingerprint k = k.k_fingerprint
let view k = k.k_view
let exact k = k.k_form <> None

(* Structural (not iso-invariant) digest of a view, for the memo
   buckets only. *)
let raw_digest t (v : 'a View.t) =
  let g = v.View.graph in
  let h = ref (Hashtbl.hash (v.View.center, Graph.order g, Graph.size g)) in
  let mix x = h := (!h * 131) + x in
  Array.iter (fun x -> mix (t.label_hash x)) v.View.labels;
  for u = 0 to Graph.order g - 1 do
    mix (u * 8191);
    Graph.iter_neighbours mix g u
  done;
  !h land max_int

let compute t (view : 'a View.t) =
  let g = view.View.graph in
  let n = Graph.order g in
  let fp, numbering = Iso.view_refinement t.label_hash view in
  (* A discrete colouring numbers the vertices 0..n-1 canonically: it is
     the rank of each vertex in the form. *)
  let form rank =
    let by_rank = Array.make n 0 in
    Array.iteri (fun v r -> by_rank.(r) <- v) rank;
    let f_labels = Array.map (fun v -> view.View.labels.(v)) by_rank in
    (* Edge a < b (ranks) is coded a * n + b. Bucket a holds the codes
       of a's higher-ranked neighbours; visiting the vertices by rank b
       fills every bucket in ascending order, so the codes come out
       sorted without a sort. *)
    let next = Array.make (n + 1) 0 in
    for u = 0 to n - 1 do
      let a = rank.(u) in
      Graph.iter_neighbours
        (fun w -> if rank.(w) > a then next.(a + 1) <- next.(a + 1) + 1)
        g u
    done;
    for a = 1 to n do
      next.(a) <- next.(a) + next.(a - 1)
    done;
    let edges = Array.make (Graph.size g) 0 in
    Array.iteri
      (fun b u ->
        Graph.iter_neighbours
          (fun w ->
            let a = rank.(w) in
            if a < b then begin
              edges.(next.(a)) <- (a * n) + b;
              next.(a) <- next.(a) + 1
            end)
          g u)
      by_rank;
    let f_center = rank.(view.View.center) in
    let h = ref f_center in
    let mix x = h := (!h lxor x) * 0x100000001b3 in
    Array.iter (fun x -> mix (t.label_hash x)) f_labels;
    Array.iter mix edges;
    { f_center; f_labels; f_edges = edges; f_hash = !h land max_int }
  in
  {
    k_fingerprint = fp;
    k_order = n;
    k_size = Graph.size g;
    k_form = Option.map form numbering;
    k_view = view;
  }

let key t view =
  if not t.use_cache then begin
    Telemetry.Counter.incr g_misses;
    compute t view
  end
  else begin
    let dg = raw_digest t view in
    Mutex.lock t.lock;
    let found =
      match Hashtbl.find_opt t.memo dg with
      | None -> None
      | Some b ->
          List.find_opt (fun (w, _) -> View.equal_repr t.label_equal view w) !b
    in
    Mutex.unlock t.lock;
    match found with
    | Some (_, k) ->
        Telemetry.Counter.incr g_hits;
        k
    | None ->
        Telemetry.Counter.incr g_misses;
        let k = compute t view in
        Mutex.lock t.lock;
        (match Hashtbl.find_opt t.memo dg with
        | Some b -> b := (view, k) :: !b
        | None -> Hashtbl.replace t.memo dg (ref [ (view, k) ]));
        Mutex.unlock t.lock;
        k
  end

let forms_equal t fa fb =
  fa.f_center = fb.f_center
  && Array.length fa.f_labels = Array.length fb.f_labels
  && fa.f_edges = fb.f_edges
  &&
  let n = Array.length fa.f_labels in
  let rec labels i =
    i >= n || (t.label_equal fa.f_labels.(i) fb.f_labels.(i) && labels (i + 1))
  in
  labels 0

let equivalent ?(exact_threshold = max_int) t ka kb =
  ka.k_fingerprint = kb.k_fingerprint
  && ka.k_order = kb.k_order
  && ka.k_size = kb.k_size
  &&
  if ka.k_order > exact_threshold then
    (* Caller-sanctioned signature-only regime for oversized views
       (mirrors the historical dedupe threshold in [Gmr]). *)
    true
  else
    match (ka.k_form, kb.k_form) with
    | Some fa, Some fb ->
        Telemetry.Counter.incr g_exact;
        forms_equal t fa fb
    | _ ->
        Telemetry.Counter.incr g_fallback;
        Iso.views_isomorphic t.label_equal ka.k_view kb.k_view

let isomorphic t a b = equivalent t (key t a) (key t b)

(* A set of keys up to [equivalent ?exact_threshold]. Equivalent keys
   always share a bucket: equivalent keys have equal order, so both sit
   on the same side of the threshold; within it, discreteness is an iso
   invariant, so both are exact (and then have equal forms) or neither
   is; every other equivalent pair agrees on (fingerprint, order, size).
   Single writer ([add]); concurrent [mem] only reads the table. *)
type 'a classes = {
  c_canon : 'a t;
  c_threshold : int;
  c_buckets : (int, 'a key list ref) Hashtbl.t;
}

let classes ?(exact_threshold = max_int) t =
  { c_canon = t; c_threshold = exact_threshold; c_buckets = Hashtbl.create 256 }

let class_hash s k =
  match k.k_form with
  | Some f when k.k_order <= s.c_threshold -> f.f_hash
  | Some _ | None -> Hashtbl.hash (k.k_fingerprint, k.k_order, k.k_size)

let in_bucket s k b =
  List.exists (equivalent ~exact_threshold:s.c_threshold s.c_canon k) !b

let mem s k =
  match Hashtbl.find_opt s.c_buckets (class_hash s k) with
  | None -> false
  | Some b -> in_bucket s k b

let add s k =
  let h = class_hash s k in
  match Hashtbl.find_opt s.c_buckets h with
  | None ->
      Hashtbl.replace s.c_buckets h (ref [ k ]);
      true
  | Some b when in_bucket s k b -> false
  | Some b ->
      b := k :: !b;
      true

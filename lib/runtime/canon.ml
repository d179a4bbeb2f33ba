(* Canonical keys for rooted labelled views.

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
   discrete, [equivalent] falls back to [Iso.views_isomorphic], at any
   view size — canonicalisation can never change an answer, only the
   route to it.

   The fingerprint is a weak bucket key exactly where the exact route
   applies: a discrete refinement is renumbered 0..n-1, so its colour
   multiset is the same for every view of that order, and the
   fingerprint carries only (centre rank, order, size). Bucketing
   thousands of distinct discrete views by fingerprint therefore makes
   deduplication quadratic. [classes] is the set that keeps it linear:
   exact keys are bucketed by a hash of their canonical form, every
   other key by (fingerprint, order, size).

   There is no memo table: [key] and [equivalent] are pure functions of
   their arguments and the two label functions, so they are safe under
   [Pool.map] by holding no state; the run's counters are atomics. *)

open Locald_graph

type stats = { keys : int; exact : int; fallback : int }

(* Run-scoped counters: what [locald --stats] and the bench JSON report
   without threading handles out of the decision layers. They live in
   the ambient telemetry run, so [Telemetry.new_run] restarts the tally.
   Every computed key counts under the name [canon.misses], which the
   bench's per-layer columns read. *)
let g_keys = Telemetry.Counter.make "canon.misses"
let g_exact = Telemetry.Counter.make "canon.exact"
let g_fallback = Telemetry.Counter.make "canon.fallback"

let run_stats () =
  {
    keys = Telemetry.Counter.get g_keys;
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

type 'a t = { label_hash : 'a -> int; label_equal : 'a -> 'a -> bool }

let create ?(hash = Hashtbl.hash) ~equal () =
  { label_hash = hash; label_equal = equal }

let fingerprint k = k.k_fingerprint
let view k = k.k_view
let exact k = k.k_form <> None

let key t (view : 'a View.t) =
  let g = view.View.graph in
  let n = Graph.order g in
  Telemetry.Counter.incr g_keys;
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

let equivalent t ka kb =
  ka.k_fingerprint = kb.k_fingerprint
  && ka.k_order = kb.k_order
  && ka.k_size = kb.k_size
  &&
  match (ka.k_form, kb.k_form) with
  | Some fa, Some fb ->
      Telemetry.Counter.incr g_exact;
      forms_equal t fa fb
  | _ ->
      Telemetry.Counter.incr g_fallback;
      Iso.views_isomorphic t.label_equal ka.k_view kb.k_view

(* A set of keys up to [equivalent]. Equivalent keys always share a
   bucket: discreteness is an iso invariant, so both are exact (and
   then have equal forms) or neither is, and every equivalent pair
   agrees on (fingerprint, order, size). Single writer ([add]);
   concurrent [mem] only reads the table. *)
type 'a classes = { c_canon : 'a t; c_buckets : (int, 'a key list ref) Hashtbl.t }

let classes t = { c_canon = t; c_buckets = Hashtbl.create 256 }

let class_hash k =
  match k.k_form with
  | Some f -> f.f_hash
  | None -> Hashtbl.hash (k.k_fingerprint, k.k_order, k.k_size)

let in_bucket s k b = List.exists (equivalent s.c_canon k) !b

let mem s k =
  match Hashtbl.find_opt s.c_buckets (class_hash k) with
  | None -> false
  | Some b -> in_bucket s k b

let add s k =
  let h = class_hash k in
  match Hashtbl.find_opt s.c_buckets h with
  | None ->
      Hashtbl.replace s.c_buckets h (ref [ k ]);
      true
  | Some b when in_bucket s k b -> false
  | Some b ->
      b := k :: !b;
      true

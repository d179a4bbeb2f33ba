(* The parallel runtime: pool semantics, canonical view keys, the
   decider's view hoist, and the determinism contract — every
   experiment driver must produce byte-identical results at any job
   count and across repeated runs with a fixed seed. *)

open Locald_graph
open Locald_local
open Locald_core
open Locald_runtime

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A shared explicit pool so the unit tests exercise the genuinely
   parallel path regardless of how the default pool is sized. *)
let pool = lazy (Pool.create ~jobs:3)

(* ------------------------------------------------------------------ *)
(* Pool semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_map_matches_sequential () =
  let pool = Lazy.force pool in
  let f x = (x * x) + 1 in
  List.iter
    (fun n ->
      let xs = Array.init n (fun i -> (i * 7) mod 23) in
      check
        (Alcotest.array int)
        (Printf.sprintf "map = Array.map at n=%d" n)
        (Array.map f xs)
        (Pool.map ~pool f xs))
    [ 0; 1; 2; 3; 17; 100; 1000 ]

let test_map_list () =
  let pool = Lazy.force pool in
  let xs = List.init 257 Fun.id in
  check (Alcotest.list int) "map_list = List.map"
    (List.map (fun x -> 3 * x) xs)
    (Pool.map_list ~pool (fun x -> 3 * x) xs)

let test_map_reduce () =
  let pool = Lazy.force pool in
  let xs = Array.init 500 Fun.id in
  check int "map_reduce sums squares"
    (Array.fold_left (fun acc x -> acc + (x * x)) 0 xs)
    (Pool.map_reduce ~pool ~f:(fun x -> x * x) ~combine:( + ) ~init:0 xs)

let test_exception_propagation () =
  let pool = Lazy.force pool in
  let f x = if x = 13 then failwith "unlucky" else x in
  (match Pool.map ~pool f (Array.init 100 Fun.id) with
  | _ -> Alcotest.fail "expected Failure to propagate to the caller"
  | exception Failure msg -> check Alcotest.string "message" "unlucky" msg);
  (* The pool must remain usable after a failed fan-out. *)
  check
    (Alcotest.array int)
    "pool reusable after exception"
    (Array.init 100 (fun i -> i + 1))
    (Pool.map ~pool (fun x -> x + 1) (Array.init 100 Fun.id))

let test_nested_map () =
  let pool = Lazy.force pool in
  (* A map issued from inside a worker takes the sequential path
     instead of deadlocking on the shared queue. *)
  (* Above the small-fan-out sequential threshold, so the outer map
     really runs on the workers and the inner maps exercise the
     inside-a-worker sequential fallback. *)
  let rows = Array.init 40 (fun i -> Array.init 50 (fun j -> i + j)) in
  let sums =
    Pool.map ~pool
      (fun row -> Array.fold_left ( + ) 0 (Pool.map ~pool (fun x -> 2 * x) row))
      rows
  in
  check
    (Alcotest.array int)
    "nested maps compute correctly"
    (Array.map
       (fun row -> Array.fold_left (fun acc x -> acc + (2 * x)) 0 row)
       rows)
    sums

let test_init_in_order () =
  let trace = ref [] in
  let a =
    Pool.init_in_order 10 (fun i ->
        trace := i :: !trace;
        i * 3)
  in
  check (Alcotest.list int) "ascending evaluation order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !trace);
  check (Alcotest.array int) "values" (Array.init 10 (fun i -> i * 3)) a

let test_split_seeds () =
  let expected =
    let rng = Random.State.make [| 99 |] in
    Array.init 32 (fun _ -> Random.State.bits rng)
  in
  let rng = Random.State.make [| 99 |] in
  check (Alcotest.array int) "split_seeds = sequential bits draws" expected
    (Pool.split_seeds rng 32)

(* Inside [Pool.sequential] every map runs on the calling domain, even
   one given an explicit three-domain pool; the scope ends with its
   function, also when that raises. Fanning out is observed with a
   latch between the first and the last item, which only two domains
   running at once can pass (each side waits at most about 5 s). *)
let test_sequential_scope () =
  let pool = Lazy.force pool in
  let here = (Domain.self () :> int) in
  let xs = Array.init 64 Fun.id in
  (* Each item sleeps a little, so a fanned-out map would reach the
     workers. *)
  let on_domains () =
    Pool.map ~pool
      (fun _ ->
        Unix.sleepf 0.001;
        (Domain.self () :> int))
      xs
  in
  check bool "every item on the calling domain" true
    (Array.for_all (( = ) here) (Pool.sequential on_domains));
  (match Pool.sequential (fun () -> failwith "scope") with
  | () -> Alcotest.fail "expected the exception"
  | exception Failure _ -> ());
  let arrived = Atomic.make 0 in
  let meets i =
    if i = 0 || i = Array.length xs - 1 then begin
      Atomic.incr arrived;
      let deadline = Timing.now () +. 5. in
      while Atomic.get arrived < 2 && Timing.now () < deadline do
        Domain.cpu_relax ()
      done
    end;
    Atomic.get arrived >= 2
  in
  check bool "the scope has ended: the pool fans out again" true
    (Pool.map ~pool meets xs).(0)

(* Resizing the default pool to the width it already has (after the
   core-count cap) keeps the live pool instead of respawning it. *)
let test_resize_keeps_same_width () =
  let p0 = Pool.default () in
  Pool.set_default_jobs (Pool.default_jobs ());
  check bool "same width keeps the pool" true (Pool.default () == p0);
  Pool.set_default_jobs 64;
  let p1 = Pool.default () in
  Pool.set_default_jobs 64;
  check bool "capped width kept on repeat" true (Pool.default () == p1);
  Pool.set_default_jobs 1

(* ------------------------------------------------------------------ *)
(* Canonical view keys                                                 *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let random_perm rng n = shuffle rng (Array.init n Fun.id)

(* Random connected labelled graphs of 3 to 40 nodes; beyond 12 nodes
   the edge probability falls as 3/n, so the average degree stays near
   4 and radius-3 views are not the whole graph. *)
let arbitrary_labelled =
  QCheck2.Gen.(
    let* n = int_range 3 40 in
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let g = Gen.random_connected rng ~n ~p:(Float.min 0.25 (3. /. Float.of_int n)) in
    let labels = Array.init n (fun _ -> Random.State.int rng 3) in
    return (Labelled.make g labels, seed))

let prop_fingerprint_is_view_signature =
  QCheck2.Test.make ~name:"Canon fingerprint = Iso.view_signature" ~count:60
    arbitrary_labelled (fun (lg, seed) ->
      let canon = Canon.create ~equal:( = ) () in
      let rng = Random.State.make [| seed + 1 |] in
      let v = Random.State.int rng (Labelled.order lg) in
      let view = View.extract lg ~center:v ~radius:2 in
      Canon.fingerprint (Canon.key canon view)
      = Iso.view_signature Hashtbl.hash view)

let prop_relabelling_invariance =
  QCheck2.Test.make
    ~name:"iso-equivalent views: equal fingerprints, equivalent keys" ~count:60
    arbitrary_labelled (fun (lg, seed) ->
      let canon = Canon.create ~equal:( = ) () in
      let rng = Random.State.make [| seed + 2 |] in
      let n = Labelled.order lg in
      let perm = random_perm rng n in
      let lh = Labelled.relabel_nodes lg perm in
      let v = Random.State.int rng n in
      let va = View.extract lg ~center:v ~radius:2 in
      let vb = View.extract lh ~center:perm.(v) ~radius:2 in
      let ka = Canon.key canon va and kb = Canon.key canon vb in
      Canon.fingerprint ka = Canon.fingerprint kb && Canon.equivalent canon ka kb)

let prop_agrees_with_backtracking =
  QCheck2.Test.make ~name:"Canon.equivalent = Iso.views_isomorphic" ~count:60
    QCheck2.Gen.(pair arbitrary_labelled (int_range 1 3))
    (fun ((lg, seed), radius) ->
      let canon = Canon.create ~equal:( = ) () in
      let rng = Random.State.make [| seed + 3 |] in
      let n = Labelled.order lg in
      let a = Random.State.int rng n and b = Random.State.int rng n in
      let va = View.extract lg ~center:a ~radius in
      let vb = View.extract lg ~center:b ~radius in
      Canon.equivalent canon (Canon.key canon va) (Canon.key canon vb)
      = Iso.views_isomorphic ( = ) va vb)

(* Views for the class-set property: random labelled views, isomorphic
   relabellings of them (duplicates the set must reject), and views of
   uniformly labelled symmetric graphs, whose refinement is not
   discrete (keys without an exact form). *)
let arbitrary_view_family =
  QCheck2.Gen.(
    let* lg, seed = arbitrary_labelled in
    let* radius = int_range 1 2 in
    let rng = Random.State.make [| seed + 5 |] in
    let n = Labelled.order lg in
    let perm = random_perm rng n in
    let lh = Labelled.relabel_nodes lg perm in
    let random =
      List.concat_map
        (fun v ->
          [
            View.extract lg ~center:v ~radius;
            View.extract lh ~center:perm.(v) ~radius;
          ])
        (List.init 5 (fun _ -> Random.State.int rng n))
    in
    let symmetric =
      List.map
        (fun g -> View.extract (Labelled.init g (fun _ -> 0)) ~center:0 ~radius)
        [ Gen.cycle 6; Gen.cycle 7; Gen.complete 4; Gen.grid 3 3; Gen.torus 3 3 ]
    in
    return (Array.to_list (shuffle rng (Array.of_list (random @ symmetric)))))

(* Insert the keyed views into a fresh [Canon.classes] set in order: [add]
   must accept exactly the views with no earlier [same] view, and [mem]
   must say so before and after. *)
let classes_follow canon same keyed =
  let set = Canon.classes canon in
  let earlier = ref [] in
  List.for_all
    (fun ((_, key) as vk) ->
      let fresh = not (List.exists (same vk) !earlier) in
      let before = Canon.mem set key in
      let accepted = Canon.add set key in
      earlier := vk :: !earlier;
      accepted = fresh && before = not fresh && Canon.mem set key)
    keyed

let prop_classes_match_pairwise =
  QCheck2.Test.make
    ~name:"classes: add = no earlier equivalent key, mem agrees" ~count:60
    arbitrary_view_family (fun views ->
      let canon = Canon.create ~equal:( = ) () in
      classes_follow canon
        (fun (_, ka) (_, kb) -> Canon.equivalent canon ka kb)
        (List.map (fun v -> (v, Canon.key canon v)) views))

(* Rooted labelled isomorphism by brute force, with neither [Canon] nor
   [Iso]: search for a bijection from [a]'s nodes to [b]'s that maps
   centre to centre, preserves every label, and maps an edge of
   [Graph.edges] to an edge and a non-edge to a non-edge. Nodes are
   placed in index order, and each placement is checked against every
   node placed before it, so the search prunes early; it is meant for
   views of at most 8 nodes. *)
let brute_isomorphic (a : int View.t) (b : int View.t) =
  let n = Graph.order a.View.graph in
  let edge_set g =
    let s = Hashtbl.create 16 in
    List.iter
      (fun (u, v) ->
        Hashtbl.replace s (u, v) ();
        Hashtbl.replace s (v, u) ())
      (Graph.edges g);
    Hashtbl.mem s
  in
  let ea = edge_set a.View.graph and eb = edge_set b.View.graph in
  let image = Array.make n (-1) and used = Array.make n false in
  let fits i j =
    (not used.(j))
    && a.View.labels.(i) = b.View.labels.(j)
    && (i = a.View.center) = (j = b.View.center)
    &&
    let rec earlier k =
      k >= i || (ea (k, i) = eb (image.(k), j) && earlier (k + 1))
    in
    earlier 0
  in
  let rec place i =
    i = n
    || List.exists
         (fun j ->
           fits i j
           && begin
                image.(i) <- j;
                used.(j) <- true;
                let ok = place (i + 1) in
                used.(j) <- false;
                ok
              end)
         (List.init n Fun.id)
  in
  n = Graph.order b.View.graph && place 0

(* Views of at most 8 nodes for the brute-force checker: random
   labelled graphs at radius 1-2, an isomorphic relabelling of each, a
   twin of each with one label changed, and C6, C7, K4 and the 2x3 grid
   under each uniform label 0, 1 and 2, whose refinement is not
   discrete. A uniform labelling keeps the partition of its graph, so
   two of the three share a fingerprint, order and size without being
   isomorphic: the pairs that reach the backtracking fallback and that
   a set bucketing by fingerprint alone would merge. *)
let small_view_family =
  QCheck2.Gen.(
    let* seed = int_bound 1_000_000 in
    let* radius = int_range 1 2 in
    let rng = Random.State.make [| seed |] in
    let random_view () =
      let n = 3 + Random.State.int rng 6 in
      let g = Gen.random_connected rng ~n ~p:(Random.State.float rng 0.6) in
      let palette = 1 + Random.State.int rng 3 in
      let lg = Labelled.init g (fun _ -> Random.State.int rng palette) in
      let perm = random_perm rng n in
      let v = Random.State.int rng n in
      let view = View.extract lg ~center:v ~radius in
      let changed = Random.State.int rng (View.order view) in
      [
        view;
        View.extract (Labelled.relabel_nodes lg perm) ~center:perm.(v) ~radius;
        View.mapi_labels
          (fun i x -> if i = changed then (x + 1) mod 3 else x)
          view;
      ]
    in
    let random = List.concat (List.init 3 (fun _ -> random_view ())) in
    let symmetric =
      List.concat_map
        (fun g ->
          List.map
            (fun label ->
              View.extract (Labelled.init g (fun _ -> label)) ~center:0 ~radius)
            [ 0; 1; 2 ])
        [ Gen.cycle 6; Gen.cycle 7; Gen.complete 4; Gen.grid 2 3 ]
    in
    return (Array.to_list (shuffle rng (Array.of_list (random @ symmetric)))))

let prop_canon_matches_brute_force =
  QCheck2.Test.make ~name:"Canon = brute-force isomorphism on small views"
    ~count:100 small_view_family (fun views ->
      let canon = Canon.create ~equal:( = ) () in
      let keys = List.map (fun v -> (v, Canon.key canon v)) views in
      let pairs_agree =
        List.for_all
          (fun (va, ka) ->
            List.for_all
              (fun (vb, kb) ->
                Canon.equivalent canon ka kb = brute_isomorphic va vb)
              keys)
          keys
      in
      pairs_agree
      && classes_follow canon (fun (va, _) (vb, _) -> brute_isomorphic va vb) keys)

(* The refinement as lists, without the discrete shortcut: rounds of
   (colour, sorted neighbour colours) keys renumbered jointly over all
   the graphs in key order, at most six, until the number of colours
   summed over the graphs stops growing. *)
let naive_refine_joint graphs colorss =
  let renumber keyss =
    let distinct = List.sort_uniq compare (List.concat_map Array.to_list keyss) in
    List.map
      (Array.map (fun k ->
           let rec index i = function
             | [] -> assert false
             | x :: rest -> if x = k then i else index (i + 1) rest
           in
           index 0 distinct))
      keyss
  in
  let count cs =
    List.fold_left
      (fun acc c -> acc + List.length (List.sort_uniq compare (Array.to_list c)))
      0 cs
  in
  let round cs =
    renumber
      (List.map2
         (fun g c ->
           Array.mapi
             (fun v x ->
               let nbr = Array.map (fun u -> c.(u)) (Graph.neighbours g v) in
               Array.sort compare nbr;
               (x, Array.to_list nbr))
             c)
         graphs cs)
  in
  let rec go rounds cs =
    if rounds >= 6 then cs
    else
      let cs' = round cs in
      if count cs' = count cs then cs' else go (rounds + 1) cs'
  in
  go 0 (renumber (List.map (Array.map (fun x -> (x, []))) colorss))

let naive_refine g colors = List.hd (naive_refine_joint [ g ] [ colors ])

(* Random coloured graphs on [n] vertices. Half are sparse random
   connected graphs, and beyond 64 vertices those get a hub: vertex 0
   joined to 64 or more others, so long neighbour slices meet in the
   kernel's comparisons. The rest are random trees and paths, on which
   uniform colours keep splitting up to the six-round cap. Palette 0 is
   a discrete initial colouring (distinct hashes); the others draw from
   1 to 3 colours, uniform included. *)
let coloured_graph rng ~n ~palette =
  let g =
    match Random.State.int rng 4 with
    | 0 -> Gen.random_tree rng n
    | 1 -> Gen.path n
    | _ ->
        let g = Gen.random_connected rng ~n ~p:(Float.min 0.2 (3. /. float n)) in
        if n <= 64 then g
        else
          Graph.add_edges g
            (List.filter_map
               (fun v -> if v <= 64 || Random.State.bool rng then Some (0, v) else None)
               (List.init (n - 1) succ))
  in
  let colors =
    if palette = 0 then Array.map Hashtbl.hash (random_perm rng n)
    else Array.init n (fun _ -> Random.State.int rng palette)
  in
  (g, colors)

let prop_refine_colors_naive =
  QCheck2.Test.make ~name:"Iso.refine_colors = naive six-round refinement"
    ~count:100
    QCheck2.Gen.(triple (int_range 1 96) (int_bound 1_000_000) (int_bound 3))
    (fun (n, seed, palette) ->
      let rng = Random.State.make [| seed |] in
      let g, colors = coloured_graph rng ~n ~palette in
      Iso.refine_colors g colors = naive_refine g colors)

(* A third of the pairs are a graph and an isomorphic copy with its
   colours carried along, a third two unrelated coloured graphs, and a
   third two uniformly coloured random trees of 2 to 12 vertices: on
   about one such pair in ten a colour class splits between the graphs
   without splitting within either, and then keeps splitting across
   them, so only the per-graph stopping rule gives the naive colours. *)
let prop_refine_joint_naive =
  QCheck2.Test.make ~name:"Iso.refine_joint = naive joint refinement"
    ~count:200
    QCheck2.Gen.(
      quad (int_range 1 96) (int_range 1 96) (int_bound 1_000_000) (int_bound 3))
    (fun (n, n', seed, palette) ->
      let rng = Random.State.make [| seed |] in
      let (g, cg), (h, ch) =
        match Random.State.int rng 3 with
        | 0 ->
            let g, cg = coloured_graph rng ~n ~palette in
            let perm = random_perm rng n in
            let ch = Array.make n 0 in
            Array.iteri (fun v c -> ch.(perm.(v)) <- c) cg;
            ((g, cg), (Graph.relabel g perm, ch))
        | 1 -> (coloured_graph rng ~n ~palette, coloured_graph rng ~n:n' ~palette)
        | _ ->
            let tree n =
              let n = 2 + (n mod 11) in
              (Gen.random_tree rng n, Array.make n 0)
            in
            (tree n, tree n')
      in
      let rg, rh = Iso.refine_joint g cg h ch in
      [ rg; rh ] = naive_refine_joint [ g; h ] [ cg; ch ])

(* ------------------------------------------------------------------ *)
(* Orbit enumeration and decide-once keys                              *)
(* ------------------------------------------------------------------ *)

let test_orbit_enumeration () =
  let bound = 5 and k = 3 in
  let via_orbit = List.of_seq (Orbit.injections ~bound ~k) in
  check int "count = perm" (Orbit.perm ~bound ~k) (List.length via_orbit);
  let via_ids =
    Ids.enumerate_injections ~n:k ~bound |> Seq.map Ids.to_array |> List.of_seq
  in
  check bool "same order as Ids.enumerate_injections" true
    (List.for_all2 ( = ) via_orbit via_ids);
  (* The imperative scan visits the same restrictions in the same
     order (through a reused scratch buffer). *)
  let seen = ref [] in
  check bool "scan completes" true
    (Orbit.for_all_injections ~bound ~k (fun r ->
         seen := Array.copy r :: !seen;
         true));
  check bool "scan = lazy enumeration" true (List.rev !seen = via_orbit);
  let count = ref 0 in
  check bool "scan stops on first false" false
    (Orbit.for_all_injections ~bound ~k (fun _ ->
         incr count;
         !count < 3));
  check int "stopped early" 3 !count;
  check bool "vacuous when k > bound" true
    (Orbit.for_all_injections ~bound:2 ~k:3 (fun _ -> false))

(* An id-reading pure decide for the cache properties: value- and
   position-sensitive, and it reads every slot, so every restriction is
   its own behaviour. *)
let parity_alg m =
  Algorithm.make ~name:"parity" ~radius:1 (fun view ->
      let acc = ref (View.center_id view) in
      for u = 0 to View.order view - 1 do
        acc := !acc + ((View.label view u + 1) * (View.id view u + 1))
      done;
      !acc mod m = 0)

(* The node of the smallest ball: perm (k+2) k grows factorially, and
   the agreement being tested is per node, not per graph. *)
let smallest_ball prep =
  let v = ref 0 in
  for u = 1 to Runner.prepared_size prep - 1 do
    if
      Array.length (Runner.ball_of prep u)
      < Array.length (Runner.ball_of prep !v)
    then v := u
  done;
  !v

(* A cache's live leaves in a fresh run are its stores less its
   evictions. Reading the stores first can only undercount them. *)
let c_distinct = Telemetry.Counter.make "memo.distinct"
let c_evictions = Telemetry.Counter.make "memo.evictions"

let live_leaves () =
  let stored = Telemetry.Counter.get c_distinct in
  stored - Telemetry.Counter.get c_evictions

(* The uncached reference for node [v]'s restrictions: its ball,
   extracted afresh, decorated with a restriction and decided
   directly. *)
let direct_decide alg lg v =
  let view, _ = View.extract_mapped lg ~center:v ~radius:alg.Algorithm.radius in
  fun r -> alg.Algorithm.decide (View.reassign_ids view (Array.copy r))

(* Two domains decide every restriction of the smallest ball through
   one capacity-bounded cache, in opposite orders, each output checked
   against a direct decide. The decider reads every slot, so each
   restriction is a leaf of its own and the 8-leaf bound is hit many
   times over. *)
let prop_cache_agrees =
  QCheck2.Test.make ~name:"decide cache = direct decide" ~count:30
    arbitrary_labelled (fun (lg, _seed) ->
      let alg = parity_alg 3 and capacity = 8 in
      let cached = Runner.prepare ~memo_capacity:capacity alg lg in
      let v = smallest_ball cached in
      let direct = direct_decide alg lg v in
      let k = Array.length (Runner.ball_of cached v) in
      let bound = k + 2 in
      QCheck2.assume (Orbit.perm ~bound ~k <= 20_000);
      let rs = Array.of_seq (Orbit.injections ~bound ~k) in
      let n = Array.length rs in
      Telemetry.new_run ();
      let scan index () =
        let ok = ref true in
        for i = 0 to n - 1 do
          let r = rs.(index i) in
          ok :=
            !ok
            && Runner.decide_restricted cached v r = direct r
            && live_leaves () <= capacity
        done;
        !ok
      in
      let other = Domain.spawn (scan (fun i -> n - 1 - i)) in
      let mine = scan Fun.id () in
      let theirs = Domain.join other in
      mine && theirs && Telemetry.Counter.get c_evictions > 0)

let prop_decorated_view_keys =
  QCheck2.Test.make
    ~name:"decorated views: equal_repr => equal fingerprints and keys"
    ~count:40 arbitrary_labelled (fun (lg, seed) ->
      let rng = Random.State.make [| seed + 11 |] in
      let n = Labelled.order lg in
      let v = Random.State.int rng n in
      let view, back = View.extract_mapped lg ~center:v ~radius:1 in
      let k = Array.length back in
      let r = Array.init k (fun _ -> Random.State.int rng 10) in
      let decorate view = View.mapi_labels (fun i x -> (x, r.(i))) view in
      let da = decorate view and db = decorate view in
      let eq (xa, ia) (xb, ib) = xa = xb && ia = ib in
      let lh (x, i) = Hashtbl.hash (x, i) in
      View.equal_repr eq da db
      && View.fingerprint lh da = View.fingerprint lh db
      &&
      let dc = Canon.create ~hash:lh ~equal:eq () in
      let ka = Canon.key dc da and kb = Canon.key dc db in
      Canon.fingerprint ka = Canon.fingerprint kb && Canon.equivalent dc ka kb)

(* Key equal extractions of one view three times in a fresh telemetry
   run: there is no memo table, so each is canonicalised. *)
let test_canon_uncached_misses () =
  Telemetry.new_run ();
  let canon = Canon.create ~equal:( = ) () in
  let lg = Labelled.init (Gen.grid 4 4) (fun v -> v mod 2) in
  for _ = 1 to 3 do
    ignore (Canon.key canon (View.extract lg ~center:5 ~radius:2))
  done;
  check int "every key canonicalised" 3 (Canon.run_stats ()).Canon.keys

let with_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

(* ------------------------------------------------------------------ *)
(* The decide path: lock-free memo reads, in-place range walks         *)
(* ------------------------------------------------------------------ *)

(* Two domains look up and store one bounded decide cache over five
   nodes. The stand-in decide reads adaptively: slot [node mod 4],
   then the slot its value names, until it revisits a slot, so the
   tries branch on different slots along different paths. 3,000
   restrictions give far more behaviours than the 64-leaf bound.
   Whatever the interleaving, a value read back is the pure function
   of its restriction, and the live leaves never pass the bound. *)
let test_memo_contention () =
  let capacity = 64 and nodes = 5 and k = 4 in
  Telemetry.new_run ();
  let t = Memo.Trie.create ~capacity nodes in
  let decide node r =
    let seen = Array.make k false in
    let rec go s acc reads =
      if seen.(s) then (Array.of_list (List.rev reads), acc)
      else begin
        seen.(s) <- true;
        go (r.(s) mod k) ((acc * 31) + r.(s)) (s :: reads)
      end
    in
    go (node mod k) node []
  in
  let restriction i = [| i mod 12; i / 12 mod 12; i / 144 mod 12; i mod 7 |] in
  let bad = Atomic.make None in
  let note msg = ignore (Atomic.compare_and_set bad None (Some msg)) in
  let worker stride () =
    for round = 0 to 5 do
      for j = 0 to 2_999 do
        let i = ((j * stride) + round) mod 3_000 in
        let node = i mod nodes and r = restriction i in
        let want = snd (decide node r) in
        let got =
          match Memo.Trie.find t node r with
          | v -> v
          | exception Not_found ->
              let reads, v = decide node r in
              Memo.Trie.store t node r ~reads v;
              v
        in
        if got <> want then note (Printf.sprintf "restriction %d read %d" i got);
        let live = live_leaves () in
        if live > capacity then
          note (Printf.sprintf "%d leaves > %d" live capacity)
      done
    done
  in
  let other = Domain.spawn (worker 7) in
  worker 11 ();
  Domain.join other;
  (match Atomic.get bad with Some msg -> Alcotest.fail msg | None -> ());
  if Telemetry.Counter.get c_evictions <= 0 then
    Alcotest.fail "expected evictions"

(* [View.fingerprint] reads every id of the view it digests. A decider
   that branches on it must show an input id read in its trace, and
   the cache, which sees only monitored reads, must then key it on
   every slot: cached decides agree with uncached ones on every
   restriction of every ball. *)
let test_fingerprint_reads () =
  let alg =
    Algorithm.make ~name:"fingerprint" ~radius:1 (fun view ->
        View.fingerprint Fun.id view mod 3 = 0)
  in
  let lg = Labelled.init (Gen.cycle 5) (fun v -> v mod 2) in
  let view = View.extract ~ids:[| 4; 0; 3; 1; 2 |] lg ~center:0 ~radius:1 in
  let input = Option.get (View.ids view) in
  let _, trace =
    Locald_analysis.Trace.run ~input_ids:(fun a -> a == input)
      alg.Algorithm.decide view
  in
  check bool "fingerprint's id read is traced" true
    (Locald_analysis.Trace.reads_input_ids trace);
  let cached = Runner.prepare alg lg in
  for v = 0 to Labelled.order lg - 1 do
    let direct = direct_decide alg lg v in
    let k = Array.length (Runner.ball_of cached v) in
    Array.iter
      (fun r ->
        check bool
          (Printf.sprintf "node %d, restriction %s" v
             (String.concat "," (Array.to_list (Array.map string_of_int r))))
          (direct r)
          (Runner.decide_restricted cached v r))
      (Array.of_seq (Orbit.injections ~bound:(k + 2) ~k))
  done

let exhaustive_eval () =
  match Sweeps.find "exhaustive-decider" with
  | Some w -> w.Sweeps.w_eval ()
  | None -> Alcotest.fail "no exhaustive-decider sweep"

(* A warm range is the serve daemon's hot path: every decide a memo
   hit. Walking it in place allocates per task, not per rank. *)
let test_warm_range_allocation () =
  let eval = exhaustive_eval () in
  Pool.sequential (fun () ->
      ignore (eval ~lo:0 ~hi:256);
      let before = Gc.minor_words () in
      ignore (eval ~lo:0 ~hi:256);
      let words = Gc.minor_words () -. before in
      if words >= 16. *. 256. then
        Alcotest.failf
          "warm 256-rank range allocated %.0f minor words (%.1f a rank)" words
          (words /. 256.))

(* Tasks count in private and flush once; the totals must still be
   one decide per node per rank, each a memo hit or a miss. *)
let test_range_counters () =
  let decides = Telemetry.Counter.make "runner.decides" in
  List.iter
    (fun jobs ->
      with_jobs jobs (fun () ->
          let eval = exhaustive_eval () in
          Telemetry.new_run ();
          let lo = 1_000 and hi = 40_313 in
          ignore (eval ~lo ~hi);
          let s = Memo.run_stats () in
          let want = 8 * (hi - lo) in
          check int (Printf.sprintf "runner.decides at jobs %d" jobs) want
            (Telemetry.Counter.get decides);
          check int (Printf.sprintf "memo hits + misses at jobs %d" jobs) want
            (s.Memo.hits + s.Memo.misses)))
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* The decider hoist: per-assignment work extracts no views            *)
(* ------------------------------------------------------------------ *)

let test_prepared_runner_no_extraction () =
  let regime = Ids.f_linear_plus 1 in
  let p = { Tree_instances.regime; arity = 2; r = 1 } in
  let lg = Tree_instances.small_instance p ~apex:(0, 1) in
  let n = Labelled.order lg in
  let alg = Tree_deciders.p_decider p in
  let before = View.extraction_count () in
  let prep = Runner.prepare alg lg in
  let after_prepare = View.extraction_count () in
  check int "prepare extracts once per node" n (after_prepare - before);
  check int "prepared_size" n (Runner.prepared_size prep);
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 20 do
    let ids = Ids.sample rng regime ~n in
    let fast = Runner.run_prepared prep ~ids in
    let slow = Runner.run alg lg ~ids in
    check (Alcotest.array bool) "run_prepared = run" slow fast
  done;
  (* The 20 assignments cost 20 * n extractions on the direct path and
     none on the prepared path — the hoist is what keeps exhaustive
     quantification from re-extracting per assignment. *)
  check int "per-assignment work extracts no views" (20 * n)
    (View.extraction_count () - after_prepare)

(* ------------------------------------------------------------------ *)
(* Determinism battery: every driver, jobs in {1, 2, 4}, repeated      *)
(* ------------------------------------------------------------------ *)

(* Every registered experiment at its quick parameters and seed 42:
   the fault grid replays exactly too — its rows embed the plans, so
   the digest pins those. *)
let test_driver_determinism (x : Registry.experiment) () =
  let run () = snd (x.e_run ~quick:true ~seed:(Some 42) ()) in
  let d1 = with_jobs 1 run in
  let d2 = with_jobs 2 run in
  let d4 = with_jobs 4 run in
  let d4' = with_jobs 4 run in
  check Alcotest.string (x.e_name ^ ": jobs=2 = jobs=1") d1 d2;
  check Alcotest.string (x.e_name ^ ": jobs=4 = jobs=1") d1 d4;
  check Alcotest.string (x.e_name ^ ": repeated run identical") d4 d4'

(* ------------------------------------------------------------------ *)
(* Golden regression: results pinned at the seed parameters            *)
(* ------------------------------------------------------------------ *)

let test_golden_table1 () =
  let rows = Experiments.table1 ~quick:true () in
  check int "four cells" 4 (List.length rows);
  let rel cell =
    (List.find (fun c -> c.Experiments.cell = cell) rows).Experiments.relation
  in
  (* The paper's separation pattern: identifiers help except when the
     bound is unknowable and the property is non-computable. *)
  check Alcotest.string "(B, C)" "LD* <> LD" (rel "(B, C)");
  check Alcotest.string "(B, notC)" "LD* <> LD" (rel "(B, notC)");
  check Alcotest.string "(notB, C)" "LD* <> LD" (rel "(notB, C)");
  check Alcotest.string "(notB, notC)" "LD* = LD" (rel "(notB, notC)");
  List.iter
    (fun (c : Experiments.cell_result) ->
      check bool (c.cell ^ ": all evidence holds") true
        (List.for_all snd c.evidence))
    rows

let test_golden_fig1 () =
  let shape =
    List.map
      (fun (x : Experiments.fig1_row) ->
        ((x.arity, x.r, x.t), (x.covered, x.total)))
      (Experiments.fig1 ~quick:true ())
  in
  check
    (Alcotest.list
       (Alcotest.pair
          (Alcotest.triple int int int)
          (Alcotest.pair int int)))
    "F1 coverage counts at seed parameters"
    [ ((2, 1, 0), (127, 127)); ((1, 4, 1), (9, 9)); ((1, 1, 1), (2, 6)) ]
    shape

let test_golden_p3 () =
  match Experiments.p3 ~quick:true () with
  | [ row ] ->
      check bool "halts in window" true row.Experiments.halts_in_window;
      check int "G classes" 322 row.Experiments.g_classes;
      check int "B classes" 322 row.Experiments.b_classes;
      check int "G covered by B" 322 row.Experiments.g_covered_by_b;
      check int "B covered by G" 322 row.Experiments.b_covered_by_g
  | rows -> Alcotest.failf "expected one quick P3 row, got %d" (List.length rows)

(* ------------------------------------------------------------------ *)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_fingerprint_is_view_signature;
      prop_relabelling_invariance;
      prop_agrees_with_backtracking;
      prop_classes_match_pairwise;
      prop_canon_matches_brute_force;
      prop_refine_colors_naive;
      prop_refine_joint_naive;
    ]

let orbit_cases =
  Alcotest.test_case "injection enumeration" `Quick test_orbit_enumeration
  :: List.map QCheck_alcotest.to_alcotest
       [ prop_cache_agrees; prop_decorated_view_keys ]

let () =
  Alcotest.run "runtime"
    [
      ( "pool",
        [
          Alcotest.test_case "map = Array.map" `Quick test_map_matches_sequential;
          Alcotest.test_case "map_list" `Quick test_map_list;
          Alcotest.test_case "map_reduce" `Quick test_map_reduce;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "nested maps" `Quick test_nested_map;
          Alcotest.test_case "sequential scope stays on the caller" `Quick
            test_sequential_scope;
          Alcotest.test_case "init_in_order" `Quick test_init_in_order;
          Alcotest.test_case "split_seeds" `Quick test_split_seeds;
          Alcotest.test_case "resize to the same width keeps the pool" `Quick
            test_resize_keeps_same_width;
        ] );
      ( "canon",
        Alcotest.test_case "uncached misses" `Quick test_canon_uncached_misses
        :: qcheck_cases );
      ("orbit", orbit_cases);
      ( "decide path",
        [
          Alcotest.test_case "memo under two domains" `Quick
            test_memo_contention;
          Alcotest.test_case "fingerprint reads are monitored" `Quick
            test_fingerprint_reads;
          Alcotest.test_case "warm range allocation" `Quick
            test_warm_range_allocation;
          Alcotest.test_case "range counters" `Quick test_range_counters;
        ] );
      ( "hoist",
        [
          Alcotest.test_case "prepared runner extracts no views per assignment"
            `Quick test_prepared_runner_no_extraction;
        ] );
      ( "determinism",
        List.map
          (fun (x : Registry.experiment) ->
            Alcotest.test_case
              (Printf.sprintf "%s identical at jobs 1/2/4" x.e_name)
              `Quick (test_driver_determinism x))
          Registry.experiments );
      ( "golden",
        [
          Alcotest.test_case "Table 1 separation pattern" `Quick
            test_golden_table1;
          Alcotest.test_case "F1 coverage counts" `Quick test_golden_fig1;
          Alcotest.test_case "P3 class counts" `Quick test_golden_p3;
        ] );
    ]

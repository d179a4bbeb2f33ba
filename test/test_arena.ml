(* The flat CSR graph and the fused ball extractor built on it.

   The reference here shares no code with the extractor: it rebuilds
   each ball from [Graph.edges] alone, with a list-based BFS, sorted
   members and ranks by position. Owned [View.extract] and borrowed
   [View.with_extract] must both be representation-identical to it —
   [View.equal_repr], not just isomorphic — over random connected
   graphs and rings, radii 0-4, every centre, with and without ids, at
   any job count and under both engine backends. The per-worker BFS
   scratch must be allocated once and reused for every further
   extraction. (The suite keeps the test names of the CSR arena that
   the graph representation absorbed.) *)

open Locald_graph
open Locald_local
open Locald_runtime

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Reference extractor: the edge list, nothing else                    *)
(* ------------------------------------------------------------------ *)

let oracle_members g ~center ~radius =
  let edges = Graph.edges g in
  let nbrs v =
    List.filter_map
      (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
      edges
  in
  let rec grow seen frontier d =
    if d = radius || frontier = [] then seen
    else
      let next =
        List.concat_map nbrs frontier
        |> List.sort_uniq compare
        |> List.filter (fun u -> not (List.mem u seen))
      in
      grow (seen @ next) next (d + 1)
  in
  (List.sort compare (grow [ center ] [ center ] 0), edges)

let oracle_extract ?ids lg ~center ~radius =
  let members, edges = oracle_members (Labelled.graph lg) ~center ~radius in
  let rank v =
    let rec go i = function
      | [] -> -1
      | u :: rest -> if u = v then i else go (i + 1) rest
    in
    go 0 members
  in
  let sub_edges =
    List.filter_map
      (fun (a, b) ->
        if List.mem a members && List.mem b members then Some (rank a, rank b)
        else None)
      edges
  in
  let back = Array.of_list members in
  let sub =
    Labelled.make
      (Graph.of_edges ~n:(Array.length back) sub_edges)
      (Array.map (Labelled.label lg) back)
  in
  let rids = Option.map (fun ids -> Array.map (fun u -> ids.(u)) back) ids in
  (View.of_parts ?ids:rids ~center:(rank center) ~radius sub, back)

let random_instance gseed =
  let rng = Random.State.make [| gseed |] in
  let n = 1 + Random.State.int rng 30 in
  let g = Gen.random_connected rng ~n ~p:0.25 in
  let lg = Labelled.init g (fun v -> (v * 13) mod 5) in
  (rng, n, lg)

(* Every centre of [lg] at [radius], with and without [ids]: owned and
   borrowed extraction against the reference, and the owned [back]
   against its members. *)
let extraction_agrees ~ids lg ~radius =
  let ok = ref true in
  for center = 0 to Labelled.order lg - 1 do
    List.iter
      (fun ids ->
        let want, want_back = oracle_extract ?ids lg ~center ~radius in
        let got, got_back = View.extract_mapped ?ids lg ~center ~radius in
        let lent =
          View.with_extract ?ids lg ~center ~radius (View.equal_repr ( = ) want)
        in
        if not (View.equal_repr ( = ) got want && lent && got_back = want_back)
        then ok := false)
      [ Some ids; None ]
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Representation                                                      *)
(* ------------------------------------------------------------------ *)

(* CSR -> per-vertex lists -> CSR, and CSR -> edge list -> CSR, also
   with every edge fed twice, once reversed and in reverse order. *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"Graph -> Arena -> Graph is the identity" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun gseed ->
      let _, n, lg = random_instance gseed in
      let g = Labelled.graph lg in
      let lists = Array.init n (Graph.neighbours g) in
      let edges = Graph.edges g in
      let twice = edges @ List.rev_map (fun (u, v) -> (v, u)) edges in
      Graph.equal g (Graph.of_adjacency lists)
      && Graph.equal g (Graph.of_edges ~n edges)
      && Graph.equal g (Graph.of_edges ~n twice)
      && Graph.size g = List.length edges)

let prop_slices_match_neighbours =
  QCheck2.Test.make
    ~name:"arena slices and neighbours_iter agree with Graph.neighbours"
    ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun gseed ->
      let _, n, lg = random_instance gseed in
      let g = Labelled.graph lg in
      let ok = ref true in
      for v = 0 to n - 1 do
        let nbrs = Array.to_list (Graph.neighbours g v) in
        let from_edges =
          List.filter_map
            (fun (a, b) -> if a = v then Some b else if b = v then Some a else None)
            (Graph.edges g)
          |> List.sort compare
        in
        let seen = ref [] in
        Graph.iter_neighbours (fun u -> seen := u :: !seen) g v;
        let folded = Graph.fold_neighbours (fun u acc -> u :: acc) g v [] in
        let odd u = u land 1 = 1 in
        if
          nbrs <> from_edges
          || Graph.degree g v <> List.length nbrs
          || List.init (Graph.degree g v) (Graph.neighbour g v) <> nbrs
          || List.rev !seen <> nbrs
          || List.rev folded <> nbrs
          || Graph.exists_neighbour odd g v <> List.exists odd nbrs
          || Graph.for_all_neighbours odd g v <> List.for_all odd nbrs
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Extraction equivalence                                              *)
(* ------------------------------------------------------------------ *)

(* Representation identity, not isomorphism: digests of downstream
   results marshal the view's concrete arrays, so the extractor must
   reproduce the reference numbering byte-for-byte. *)
let prop_extract_matches_reference =
  QCheck2.Test.make
    ~name:"arena-backed View.extract is equal_repr to ball+induced" ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 4))
    (fun (gseed, radius) ->
      let rng, n, lg = random_instance gseed in
      extraction_agrees ~ids:(Ids.to_array (Ids.shuffled rng n)) lg ~radius)

let test_rings_match_reference () =
  for n = 3 to 12 do
    let lg = Labelled.init (Gen.cycle n) (fun v -> v mod 3) in
    let ids = Array.init n (fun v -> (7 * v) + 1) in
    for radius = 0 to 4 do
      check bool
        (Printf.sprintf "ring C%d at radius %d" n radius)
        true
        (extraction_agrees ~ids lg ~radius)
    done
  done

(* A borrow nested inside a borrow falls back to an owned view, and an
   owned extraction inside the callback leaves the borrowed ball
   intact. *)
let test_nested_borrow () =
  let rng = Random.State.make [| 5 |] in
  let lg = Labelled.init (Gen.random_connected rng ~n:24 ~p:0.2) (fun v -> v mod 4) in
  let ids = Ids.to_array (Ids.shuffled rng 24) in
  let want c = fst (oracle_extract ~ids lg ~center:c ~radius:2) in
  let outer_ok, inner_ok, owned_ok, outer_after =
    View.with_extract ~ids lg ~center:3 ~radius:2 (fun outer ->
        let outer_ok = View.equal_repr ( = ) outer (want 3) in
        let inner_ok =
          View.with_extract ~ids lg ~center:17 ~radius:2 (fun inner ->
              View.equal_repr ( = ) inner (want 17))
        in
        let owned_ok =
          View.equal_repr ( = ) (View.extract ~ids lg ~center:11 ~radius:2) (want 11)
        in
        (outer_ok, inner_ok, owned_ok, View.equal_repr ( = ) outer (want 3)))
  in
  check bool "outer borrowed view" true outer_ok;
  check bool "nested borrow (owned fallback)" true inner_ok;
  check bool "owned extraction inside the callback" true owned_ok;
  check bool "outer view intact after both" true outer_after

(* The lent buffers are released when the callback raises: the next
   borrow allocates no graph. K_40's radius-1 ball has 1,560 adjacency
   entries, which an owned extraction copies and a borrow does not. *)
let test_exception_releases () =
  let lg = Labelled.const (Gen.complete 40) 0 in
  let bytes f =
    let before = Gc.allocated_bytes () in
    ignore (Sys.opaque_identity (f ()));
    Gc.allocated_bytes () -. before
  in
  let borrow () = View.with_extract lg ~center:0 ~radius:1 View.order in
  let own () = View.order (View.extract lg ~center:0 ~radius:1) in
  (* First calls grow the lent and staging buffers. *)
  ignore (borrow ());
  ignore (own ());
  let owned = bytes own in
  (match View.with_extract lg ~center:0 ~radius:1 (fun _ -> failwith "boom") with
  | _ -> Alcotest.fail "the callback's exception was swallowed"
  | exception Failure _ -> ());
  let lent = bytes borrow in
  check bool
    (Printf.sprintf "borrowed after the exception (%.0f vs %.0f owned bytes)" lent owned)
    true
    (lent *. 4. < owned);
  check int "borrowed extractions count" 3
    (let c0 = View.extraction_count () in
     ignore (borrow ());
     ignore (View.with_extract lg ~center:1 ~radius:1 (fun _ -> borrow ()));
     View.extraction_count () - c0)

(* The same equivalence through the engines: decide outputs over the
   prepared views agree with decides over reference views at jobs 1
   and 4, under the synchronous and the asynchronous backend. *)
let prop_engines_match_reference =
  let describe view =
    ( View.order view,
      Option.map Array.to_list (View.ids view),
      Array.init (View.order view) (View.label view),
      Array.init (View.order view) (fun v ->
          Array.to_list (View.neighbours view v)) )
  in
  let alg = Algorithm.make ~name:"describe" ~radius:2 describe in
  QCheck2.Test.make
    ~name:"prepared views agree across jobs and backends" ~count:40
    QCheck2.Gen.(int_bound 1_000_000)
    (fun gseed ->
      let rng, n, lg = random_instance gseed in
      let ids = Ids.shuffled rng n in
      let ids_arr = Ids.to_array ids in
      let expected =
        Array.init n (fun center ->
            describe (fst (oracle_extract ~ids:ids_arr lg ~center ~radius:2)))
      in
      let backends =
        [
          Backend.Sync;
          Backend.Async { Async_runner.sched_seed = 7; fifo = false };
        ]
      in
      let ok =
        List.for_all
          (fun jobs ->
            Pool.set_default_jobs jobs;
            List.for_all
              (fun backend ->
                let prep = Runner.prepare ~backend alg lg in
                Runner.run_prepared prep ~ids = expected)
              backends)
          [ 1; 4 ]
      in
      Pool.set_default_jobs 1;
      ok)

(* ------------------------------------------------------------------ *)
(* Scratch pooling                                                     *)
(* ------------------------------------------------------------------ *)

(* Across whole batches of extractions — and across different id
   assignments, which must not invalidate the scratch — the per-domain
   BFS scratch is allocated at most once (zero times if an earlier
   test already grew it) and reused everywhere else. *)
let test_scratch_reused_across_assignments () =
  Pool.set_default_jobs 1;
  let lg = Labelled.init (Gen.grid 8 8) (fun v -> v mod 3) in
  let alg = Algorithm.make ~name:"order" ~radius:2 View.order in
  let prep0 = Runner.prepare alg lg in
  ignore (Runner.run_prepared prep0 ~ids:(Ids.sequential 64));
  let r0 = Graph.scratch_reuses () and a0 = Graph.scratch_allocs () in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 3 do
    let prep = Runner.prepare alg lg in
    ignore (Runner.run_prepared prep ~ids:(Ids.shuffled rng 64))
  done;
  let reuses = Graph.scratch_reuses () - r0 in
  let allocs = Graph.scratch_allocs () - a0 in
  check int "no new scratch allocations" 0 allocs;
  (* 3 prepares x 64 extractions, every one a reuse. *)
  check int "every extraction reuses the pooled scratch" 192 reuses

let test_scratch_gauge_reported () =
  Pool.set_default_jobs 1;
  let lg = Labelled.init (Gen.grid 8 8) (fun v -> v mod 3) in
  let alg = Algorithm.make ~name:"order" ~radius:2 View.order in
  Telemetry.new_run ();
  ignore (Runner.prepare alg lg);
  let g = Telemetry.Gauge.get (Telemetry.Gauge.make "view.scratch_reuses") in
  (* The flush may also sweep extractions performed since the previous
     sync point, so the gauge is a lower-bounded check: at least this
     prepare's 64 balls, minus at most one first-touch allocation. *)
  check bool
    (Printf.sprintf "view.scratch_reuses gauge counts this run's reuse (%g)" g)
    true (g >= 63.);
  Telemetry.new_run ()

let () =
  Alcotest.run "arena"
    [
      ( "representation",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_slices_match_neighbours ] );
      ( "extraction",
        List.map QCheck_alcotest.to_alcotest
          [ prop_extract_matches_reference; prop_engines_match_reference ]
        @ [
            Alcotest.test_case "rings match the oracle" `Quick
              test_rings_match_reference;
            Alcotest.test_case "nested borrow" `Quick test_nested_borrow;
            Alcotest.test_case "exception releases the borrow" `Quick
              test_exception_releases;
          ] );
      ( "scratch",
        [
          Alcotest.test_case "reused across assignments" `Quick
            test_scratch_reused_across_assignments;
          Alcotest.test_case "telemetry gauge" `Quick
            test_scratch_gauge_reported;
        ] );
    ]

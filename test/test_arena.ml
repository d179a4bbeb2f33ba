(* The CSR graph arena and the fused ball extractor built on it.

   The arena is a pure re-representation: Graph -> Arena -> Graph must
   be the identity, and the arena-backed [View.extract] must be
   representation-identical — [View.equal_repr], not just isomorphic —
   to the historical [Graph.ball] + [Labelled.induced] pipeline, over
   random graphs, radii, centres and id assignments, at any job count
   and under both engine backends. The per-worker BFS scratch must be
   allocated once and reused for every further extraction. *)

open Locald_graph
open Locald_local
open Locald_runtime

let check = Alcotest.check
let int = Alcotest.int
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Reference extractor: the historical pipeline                        *)
(* ------------------------------------------------------------------ *)

let reference_extract ?ids lg ~center ~radius =
  let members = Graph.ball (Labelled.graph lg) center radius in
  let sub, back = Labelled.induced lg members in
  let rank v =
    let r = ref (-1) in
    Array.iteri (fun i u -> if u = v then r := i) back;
    !r
  in
  let rids = Option.map (fun ids -> Array.map (fun u -> ids.(u)) back) ids in
  (View.of_parts ?ids:rids ~center:(rank center) ~radius sub, back)

let random_instance gseed =
  let rng = Random.State.make [| gseed |] in
  let n = 1 + Random.State.int rng 30 in
  let g = Gen.random_connected rng ~n ~p:0.25 in
  let lg = Labelled.init g (fun v -> (v * 13) mod 5) in
  (rng, n, lg)

(* ------------------------------------------------------------------ *)
(* Arena round trip                                                    *)
(* ------------------------------------------------------------------ *)

let prop_roundtrip =
  QCheck2.Test.make ~name:"Graph -> Arena -> Graph is the identity" ~count:200
    QCheck2.Gen.(int_bound 1_000_000)
    (fun gseed ->
      let _, n, lg = random_instance gseed in
      let g = Labelled.graph lg in
      let a = Arena.of_graph g in
      Arena.order a = n
      && Arena.size a = Graph.size g
      && Graph.equal g (Arena.to_graph a))

let prop_slices_match_neighbours =
  QCheck2.Test.make
    ~name:"arena slices and neighbours_iter agree with Graph.neighbours"
    ~count:100
    QCheck2.Gen.(int_bound 1_000_000)
    (fun gseed ->
      let _, n, lg = random_instance gseed in
      let g = Labelled.graph lg in
      let a = Arena.of_graph g in
      let ok = ref true in
      for v = 0 to n - 1 do
        let nbrs = Graph.neighbours g v in
        if Arena.degree a v <> Array.length nbrs then ok := false;
        let adj, off, len = Arena.slice a v in
        if len <> Array.length nbrs then ok := false
        else
          Array.iteri (fun i u -> if adj.(off + i) <> u then ok := false) nbrs;
        let seen = ref [] in
        Arena.neighbours_iter a v (fun u -> seen := u :: !seen);
        if List.rev !seen <> Array.to_list nbrs then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Extraction equivalence                                              *)
(* ------------------------------------------------------------------ *)

(* Representation identity, not isomorphism: digests of downstream
   results marshal the view's concrete arrays, so the arena extractor
   must reproduce the historical numbering byte-for-byte. *)
let prop_extract_matches_reference =
  QCheck2.Test.make
    ~name:"arena-backed View.extract is equal_repr to ball+induced" ~count:200
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_bound 3))
    (fun (gseed, radius) ->
      let rng, n, lg = random_instance gseed in
      let ids = Ids.to_array (Ids.shuffled rng n) in
      let ok = ref true in
      for center = 0 to n - 1 do
        let got = View.extract ~ids lg ~center ~radius in
        let want, _ = reference_extract ~ids lg ~center ~radius in
        if not (View.equal_repr ( = ) got want) then ok := false;
        let got_free = View.extract lg ~center ~radius in
        let want_free, _ = reference_extract lg ~center ~radius in
        if not (View.equal_repr ( = ) got_free want_free) then ok := false
      done;
      !ok)

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
            describe
              (fst (reference_extract ~ids:ids_arr lg ~center ~radius:2)))
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
  let r0 = Arena.scratch_reuses () and a0 = Arena.scratch_allocs () in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 3 do
    let prep = Runner.prepare alg lg in
    ignore (Runner.run_prepared prep ~ids:(Ids.shuffled rng 64))
  done;
  let reuses = Arena.scratch_reuses () - r0 in
  let allocs = Arena.scratch_allocs () - a0 in
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
          [ prop_extract_matches_reference; prop_engines_match_reference ] );
      ( "scratch",
        [
          Alcotest.test_case "reused across assignments" `Quick
            test_scratch_reused_across_assignments;
          Alcotest.test_case "telemetry gauge" `Quick
            test_scratch_gauge_reported;
        ] );
    ]

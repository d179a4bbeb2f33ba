(* Cross-backend battery for the asynchronous message-passing backend:
   view-level and output-level identity with the synchronous simulator,
   digest equality over every quick-bench workload and every driver at
   several scheduler seeds and job counts, the adversarial scheduler's
   determinism and reordering properties, and the observational
   transparency of tracing over the async hot path. *)

open Locald_graph
open Locald_runtime
open Locald_local
open Locald_core

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

let config ?(fifo = false) sched_seed = { Async_runner.sched_seed; fifo }

let rng () = Random.State.make [| 0xa5 |]

(* The same everything-sensitive algorithm the runner and fault tests
   use: any change to the view representation or the id decoration
   changes the output. *)
let fingerprint_algorithm ~radius =
  Algorithm.make ~name:"fingerprint" ~radius (fun view ->
      let ids = match View.ids view with Some ids -> ids | None -> [||] in
      let pairs =
        Array.to_list (Array.mapi (fun v id -> (id, view.View.labels.(v))) ids)
      in
      Hashtbl.hash (List.sort compare pairs, Graph.size view.View.graph))

let test_graphs =
  [ Gen.cycle 7; Gen.grid 3 4; Gen.complete_binary_tree 3; Gen.star 6;
    Gen.path 5 ]

let scheduler_configs =
  [ config 0; config 1; config ~fifo:true 42; config ~fifo:true 7 ]

(* ------------------------------------------------------------------ *)
(* View-level identity: the protocol assembles the exact views          *)
(* ------------------------------------------------------------------ *)

(* Not merely isomorphic views — representation-identical (view, ball
   map) pairs. This is what makes the async [Runner.prepare] a drop-in
   for the synchronous one: memo keys, quotient scans and digests all
   read the concrete representation. *)
let test_assembled_views_identical () =
  List.iter
    (fun g ->
      let lg = Labelled.init g (fun v -> v mod 3) in
      List.iter
        (fun radius ->
          List.iter
            (fun cfg ->
              let assembled = Async_runner.assemble_views ~config:cfg ~radius lg in
              Array.iteri
                (fun v (view, back) ->
                  let sview, sback = View.extract_mapped lg ~center:v ~radius in
                  check bool "view representation identical" true
                    (View.equal_repr ( = ) view sview);
                  check (Alcotest.array int) "ball map identical" sback back)
                assembled)
            scheduler_configs)
        [ 0; 1; 2 ])
    test_graphs

let test_run_outputs_identical () =
  List.iter
    (fun g ->
      let lg = Labelled.init g (fun v -> v mod 4) in
      let n = Labelled.order lg in
      let ids = Ids.shuffled (rng ()) n in
      List.iter
        (fun radius ->
          let alg = fingerprint_algorithm ~radius in
          let expected = Runner.run ~backend:Backend.Sync alg lg ~ids in
          List.iter
            (fun cfg ->
              let got = Async_runner.run ~config:cfg alg lg ~ids in
              check (Alcotest.array int) "async run = sync run" expected got)
            scheduler_configs)
        [ 1; 2 ])
    test_graphs

(* The same identity on random connected graphs, at radii 0-2, under
   random scheduler seeds in both FIFO modes. *)
let prop_random_outputs_identical =
  QCheck2.Test.make ~name:"async outputs equal sync outputs on random graphs"
    ~count:60
    QCheck2.Gen.(
      pair
        (quad (int_range 3 14) (int_bound 1_000_000) (int_bound 1000)
           (int_bound 2))
        bool)
    (fun ((n, gseed, sched_seed, radius), fifo) ->
      let rng = Random.State.make [| gseed |] in
      let g = Gen.random_connected rng ~n ~p:0.3 in
      let lg = Labelled.init g (fun v -> (v * 5) mod 3) in
      let ids = Ids.shuffled rng n in
      let alg = fingerprint_algorithm ~radius in
      Runner.run ~backend:Backend.Sync alg lg ~ids
      = Async_runner.run ~config:(config ~fifo sched_seed) alg lg ~ids)

(* ------------------------------------------------------------------ *)
(* Backend selection                                                    *)
(* ------------------------------------------------------------------ *)

let test_backend_parsing () =
  check bool "sync parses" true (Backend.of_string "sync" = Some Backend.Sync);
  check bool "async parses" true
    (Backend.of_string " Async " = Some (Backend.Async Async_runner.default_config));
  check bool "garbage rejected" true (Backend.of_string "quantum" = None);
  let resolve name ?sched_seed ?fifo () =
    Backend.resolve name ~sched_seed ~fifo
  in
  check bool "nothing chosen" true (resolve None () = Ok None);
  check bool "named sync" true (resolve (Some " SYNC") () = Ok (Some Backend.Sync));
  check bool "seed implies async" true
    (resolve None ~sched_seed:9 () = Ok (Some (Backend.Async (config 9))));
  check bool "fifo implies async" true
    (resolve None ~fifo:true ()
    = Ok (Some (Backend.Async (config ~fifo:true 0))));
  check bool "named async, refined" true
    (resolve (Some "async") ~sched_seed:9 ~fifo:true ()
    = Ok (Some (Backend.Async (config ~fifo:true 9))))

(* ------------------------------------------------------------------ *)
(* Digest battery: every quick-bench workload, sync vs async            *)
(* ------------------------------------------------------------------ *)

let with_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let regime = Ids.f_linear_plus 1

(* >= 8 scheduler seeds per workload, alternating job counts and FIFO
   modes: the backend, the adversary and the pool must all be
   observationally inert, separately and combined. *)
let async_seeds = [ 0; 1; 2; 3; 4; 5; 6; 7 ]

(* Over the quick-tier workloads BENCH_quick.json pins: the committed
   sync digests stay authoritative (test_registry); here each workload
   only has to agree with itself across backends, seeds and job
   counts. *)
let test_workload_cross_backend (w : Registry.pinned) () =
  let work backend () = snd (w.p_run ~backend ()) in
  let baseline = with_jobs 1 (work Backend.Sync) in
  let sync4 = with_jobs 4 (work Backend.Sync) in
  check string (w.p_name ^ ": sync jobs=4 = sync jobs=1") baseline sync4;
  List.iter
    (fun s ->
      let jobs = if s mod 2 = 0 then 1 else 4 in
      let cfg = config ~fifo:(s mod 3 = 0) s in
      let d = with_jobs jobs (work (Backend.Async cfg)) in
      check string
        (Printf.sprintf "%s: async seed=%d%s jobs=%d = sync" w.p_name s
           (if cfg.Async_runner.fifo then " fifo" else "")
           jobs)
        baseline d)
    async_seeds

(* ------------------------------------------------------------------ *)
(* Digest battery: every experiment driver, sync vs async               *)
(* ------------------------------------------------------------------ *)

(* Drivers that run no simulator ignore the backend; the fault grid
   always runs on the synchronous fault engine. *)
let test_driver_cross_backend (x : Registry.experiment) () =
  let run backend () = snd (x.e_run ~backend ~quick:true ~seed:(Some 42) ()) in
  let baseline = with_jobs 1 (run Backend.Sync) in
  List.iter
    (fun (s, jobs) ->
      let d =
        with_jobs jobs (run (Backend.Async (config ~fifo:(s mod 2 = 1) s)))
      in
      check string
        (Printf.sprintf "%s: async seed=%d jobs=%d = sync" x.e_name s jobs)
        baseline d)
    [ (3, 1); (11, 4) ]

(* ------------------------------------------------------------------ *)
(* Scheduler properties                                                 *)
(* ------------------------------------------------------------------ *)

(* Same seed => the whole observable execution replays: every
   delivery in order, every output. *)
let prop_replay_deterministic =
  QCheck2.Test.make ~name:"same scheduler seed replays the identical trace"
    ~count:40
    QCheck2.Gen.(
      quad (int_range 3 12) (int_bound 1_000_000) (int_bound 1000) bool)
    (fun (n, gseed, sched_seed, fifo) ->
      let rng = Random.State.make [| gseed |] in
      let g = Gen.random_connected rng ~n ~p:0.3 in
      let lg = Labelled.init g (fun v -> (v * 7) mod 3) in
      let ids = Ids.shuffled rng n in
      let alg = fingerprint_algorithm ~radius:2 in
      let run () =
        Async_runner.run_trace ~config:(config ~fifo sched_seed) alg lg ~ids
      in
      run () = run ())

let delivery_order cfg =
  let lg = Labelled.init (Gen.cycle 3) (fun v -> v) in
  let ids = Ids.sequential 3 in
  let _, deliveries =
    Async_runner.run_trace ~config:cfg (fingerprint_algorithm ~radius:1) lg
      ~ids
  in
  List.map (fun (d : Async_runner.delivery) -> d.uid) deliveries

(* An adversary that cannot reorder is no adversary: on a triangle,
   eight seeds must produce at least two genuinely different delivery
   interleavings (in practice they produce many more). *)
let test_seeds_explore_interleavings () =
  let orders = List.map (fun s -> delivery_order (config s)) async_seeds in
  let distinct =
    List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) []
      orders
  in
  check bool
    (Printf.sprintf "distinct interleavings (%d/8)" (List.length distinct))
    true
    (List.length distinct >= 2);
  (* ... and each of them is a pure function of the seed. *)
  List.iteri
    (fun i o ->
      check (Alcotest.list int) "seed replays its order" o
        (delivery_order (config i)))
    orders

(* FIFO mode: the adversary still interleaves across links, but within
   one directed link deliveries come in send (uid) order. *)
let prop_fifo_preserves_link_order =
  QCheck2.Test.make ~name:"FIFO mode delivers each link in send order"
    ~count:40
    QCheck2.Gen.(triple (int_range 3 12) (int_bound 1_000_000) (int_bound 1000))
    (fun (n, gseed, sched_seed) ->
      let rng = Random.State.make [| gseed |] in
      let g = Gen.random_connected rng ~n ~p:0.3 in
      let lg = Labelled.init g (fun v -> v mod 2) in
      let ids = Ids.shuffled rng n in
      let _, deliveries =
        Async_runner.run_trace ~config:(config ~fifo:true sched_seed)
          (fingerprint_algorithm ~radius:2) lg ~ids
      in
      let last : (int * int, int) Hashtbl.t = Hashtbl.create 32 in
      List.for_all
        (fun { Async_runner.uid; src; dst } ->
          let ok =
            match Hashtbl.find_opt last (src, dst) with
            | Some prev -> prev < uid
            | None -> true
          in
          Hashtbl.replace last (src, dst) uid;
          ok)
        deliveries)

(* ------------------------------------------------------------------ *)
(* Telemetry transparency on the async hot path                         *)
(* ------------------------------------------------------------------ *)

(* The sched.step span sits inside the scheduler's innermost loop: with
   tracing off it must be a no-op (same digest), with tracing on it
   must actually appear in the sink. *)
let test_trace_transparent () =
  let work () =
    Sweeps.digest
      (Sweeps.exhaustive_decider ~backend:(Backend.Async (config 5)) ())
  in
  let plain = work () in
  let path = Filename.temp_file "locald_async_trace" ".jsonl" in
  let traced =
    Telemetry.open_sink path;
    Fun.protect ~finally:(fun () -> Telemetry.close_sink ()) work
  in
  let ic = open_in path in
  let saw_sched = ref false in
  (try
     while true do
       let line = input_line ic in
       let is_sub i =
         i + 10 <= String.length line && String.sub line i 10 = "sched.step"
       in
       for i = 0 to String.length line - 10 do
         if is_sub i then saw_sched := true
       done
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  check string "digest with tracing = digest without" plain traced;
  check bool "sched.step spans reached the sink" true !saw_sched

(* ------------------------------------------------------------------ *)
(* The prepare hoist holds on the async path too                        *)
(* ------------------------------------------------------------------ *)

let test_async_prepare_extraction_pin () =
  let p = { Tree_instances.regime; arity = 2; r = 1 } in
  let lg = Tree_instances.small_instance p ~apex:(0, 1) in
  let n = Labelled.order lg in
  let alg = Tree_deciders.p_decider p in
  let before = View.extraction_count () in
  let prep = Runner.prepare ~backend:(Backend.Async (config 3)) alg lg in
  let after_prepare = View.extraction_count () in
  check int "async prepare extracts once per node" n (after_prepare - before);
  let rng = Random.State.make [| 7 |] in
  for _ = 1 to 10 do
    let ids = Ids.sample rng regime ~n in
    let fast = Runner.run_prepared prep ~ids in
    let slow = Runner.run ~backend:Backend.Sync alg lg ~ids in
    check (Alcotest.array bool) "async-prepared = sync run" slow fast
  done;
  (* The 10 assignments cost 10 * n extractions on the direct sync
     comparison path and none on the async-prepared path. *)
  check int "per-assignment work extracts no views" (10 * n)
    (View.extraction_count () - after_prepare)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "async"
    [
      ( "identity",
        [
          Alcotest.test_case "assembled views = extracted views" `Quick
            test_assembled_views_identical;
          Alcotest.test_case "run outputs = sync outputs" `Quick
            test_run_outputs_identical;
          QCheck_alcotest.to_alcotest prop_random_outputs_identical;
          Alcotest.test_case "backend parsing and resolution" `Quick
            test_backend_parsing;
          Alcotest.test_case "prepare hoist pins" `Quick
            test_async_prepare_extraction_pin;
        ] );
      ( "battery-workloads",
        List.map
          (fun (w : Registry.pinned) ->
            Alcotest.test_case
              (Printf.sprintf "%s byte-identical across backends" w.p_name)
              `Quick (test_workload_cross_backend w))
          (Registry.tier_workloads Registry.Quick) );
      ( "battery-drivers",
        List.map
          (fun (x : Registry.experiment) ->
            Alcotest.test_case
              (Printf.sprintf "%s byte-identical across backends" x.e_name)
              `Quick (test_driver_cross_backend x))
          Registry.experiments );
      ( "scheduler",
        [
          QCheck_alcotest.to_alcotest prop_replay_deterministic;
          Alcotest.test_case "seeds explore interleavings" `Quick
            test_seeds_explore_interleavings;
          QCheck_alcotest.to_alcotest prop_fifo_preserves_link_order;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "tracing is observationally inert" `Quick
            test_trace_transparent;
        ] );
    ]

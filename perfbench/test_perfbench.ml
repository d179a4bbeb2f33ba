(* The benchmark's own helpers: the tail-percentile rule, schedule
   determinism from the seed, self-time subtraction, and the metric
   catalogue against BENCHMARK.json. *)

open Perfbench
module Json = Locald_runtime.Telemetry.Json

let check = Alcotest.check
let int = Alcotest.int
let float = Alcotest.float 1e-9
let string = Alcotest.string
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let shuffled n =
  let a = Array.init n (fun i -> float_of_int (i + 1)) in
  let st = Random.State.make [| n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let test_tail_rule () =
  (* Samples 1..n: the tail is the largest sample with exactly ten
     above it. *)
  List.iter
    (fun n ->
      match Stats.tail (shuffled n) with
      | None -> Alcotest.failf "no tail over %d samples" n
      | Some t ->
          check float (Printf.sprintf "value over %d" n) (float_of_int (n - 10)) t.Stats.value;
          check int "samples" n t.Stats.samples;
          check int "exactly ten beyond" 10
            (List.length (List.filter (fun x -> x > t.Stats.value) (shuffled n))))
    [ 11; 200; 1000 ];
  (match Stats.tail (shuffled 200) with
  | Some t -> check float "200 samples support p95" 95. t.Stats.percentile
  | None -> Alcotest.fail "no tail");
  (match Stats.tail (shuffled 1000) with
  | Some t -> check float "1000 samples support p99" 99. t.Stats.percentile
  | None -> Alcotest.fail "no tail");
  check bool "ten samples have no tail" true (Stats.tail (shuffled 10) = None)

let test_median () =
  check float "odd" 3. (Stats.median [ 5.; 1.; 3. ]);
  check float "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ])

(* ------------------------------------------------------------------ *)
(* Schedules                                                           *)
(* ------------------------------------------------------------------ *)

let draw st i =
  Sched.pick st
    [
      (3, fun st -> Sched.Decide { workload = "w"; lo = Random.State.int st 100; hi = 200; sched_seed = None });
      (1, fun _ -> Sched.Decide { workload = "w"; lo = 0; hi = 1; sched_seed = Some (i mod 5) });
      (1, fun _ -> Sched.Ping);
    ]

let schedule ?(phase = "low") ?(n = 500) seed = Sched.open_loop ~seed ~phase ~rate:50. ~n draw

let test_schedule_determinism () =
  check string "same seed, same schedule" (Sched.digest (schedule 7)) (Sched.digest (schedule 7));
  check bool "same seed, equal items" true (schedule 7 = schedule 7);
  check bool "another seed, another schedule" true
    (Sched.digest (schedule 7) <> Sched.digest (schedule 8));
  check bool "another phase, another schedule" true
    (Sched.digest (schedule 7) <> Sched.digest (schedule ~phase:"high" 7));
  (* A longer phase extends a shorter one: its first items are equal. *)
  check bool "prefix-stable in n" true (Array.sub (schedule ~n:1000 7) 0 500 = schedule 7);
  check bool "closed loops are seeded too" true
    (Sched.closed_loop ~seed:3 ~phase:"pass-0" ~n:50 draw
    = Sched.closed_loop ~seed:3 ~phase:"pass-0" ~n:50 draw)

let test_schedule_shape () =
  let items = schedule ~n:20000 11 in
  let ascending = ref true in
  Array.iteri (fun i it -> if i > 0 && it.Sched.due < items.(i - 1).Sched.due then ascending := false) items;
  check bool "due times ascend" true !ascending;
  (* 20,000 exponential gaps at 50/s: the mean gap is 20 ms within 3%. *)
  let mean_gap = items.(19999).Sched.due /. 20000. in
  check bool (Printf.sprintf "mean gap %.4f s" mean_gap) true (Float.abs (mean_gap -. 0.02) < 0.0006);
  let pings = Array.fold_left (fun a it -> if it.Sched.req = Sched.Ping then a + 1 else a) 0 items in
  check bool (Printf.sprintf "ping share %d / 20000" pings) true (abs (pings - 4000) < 300)

(* ------------------------------------------------------------------ *)
(* Self time                                                           *)
(* ------------------------------------------------------------------ *)

let sp ?parent id t0 t1 =
  {
    Spans.id;
    parent;
    name = string_of_int id;
    t0;
    t1;
    minor_words = 0.;
    promoted_words = 0.;
    minor_gcs = 0;
    major_gcs = 0;
  }

let test_self_time () =
  (* Parent [0,10]; children [1,3] and [2,5] overlap, [8,12] runs past
     the parent's end; a grandchild inside [1,3] is not the parent's
     child. Covered: [1,5] and [8,10], so self = 10 - 6. *)
  let parent = sp 0 0. 10. in
  let all =
    [ parent; sp ~parent:0 1 1. 3.; sp ~parent:0 2 2. 5.; sp ~parent:0 3 8. 12.; sp ~parent:1 4 1.5 2.5 ]
  in
  check float "overlapping children count once" 4. (Spans.self_time all parent);
  check float "child minus its own child" 1. (Spans.self_time all (List.nth all 1));
  check float "leaf self time is its duration" 1. (Spans.self_time all (List.nth all 4));
  check float "disjoint union" 3. (Spans.covered ~lo:0. ~hi:10. [ (0., 1.); (4., 6.) ])

let test_recorder_nesting () =
  let r = Spans.create () in
  Spans.span r "outer" (fun () ->
      Spans.span r "a" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)));
      (try Spans.span r "b" (fun () -> failwith "boom") with Failure _ -> ()));
  Spans.span r "after" ignore;
  let all = Spans.spans r in
  let id name = (Option.get (Spans.find all name)).Spans.id in
  let parent name = (Option.get (Spans.find all name)).Spans.parent in
  check bool "a nests in outer" true (parent "a" = Some (id "outer"));
  check bool "a raising span still closes" true (parent "b" = Some (id "outer"));
  check bool "the stack unwinds" true (parent "after" = None);
  let outer = Option.get (Spans.find all "outer") in
  check bool "self time within duration" true
    (Spans.self_time all outer >= 0. && Spans.self_time all outer <= Spans.duration outer);
  check bool "allocation is recorded" true ((Option.get (Spans.find all "a")).Spans.minor_words >= 3000.)

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

let test_catalog () =
  let json = Json.of_string (In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all) in
  let list key = match Json.member key json with Some (Json.List l) -> l | _ -> [] in
  let str key o = match Json.member key o with Some (Json.String s) -> s | _ -> "" in
  check (Alcotest.list (Alcotest.pair string string)) "workloads and their why" Catalog.workloads
    (List.map (fun o -> (str "name" o, str "why" o)) (list "workloads"));
  let metric o =
    ( str "name" o,
      str "unit" o,
      str "better" o,
      match Json.member "bound" o with Some (Json.Float b) -> Some b | _ -> None )
  in
  let ours (c : Catalog.metric) =
    ( c.Catalog.name,
      c.Catalog.unit,
      (match c.Catalog.better with Catalog.Lower -> "lower" | Catalog.Higher -> "higher"),
      c.Catalog.bound )
  in
  let t = Alcotest.(list (pair string (pair string (pair string (option (Alcotest.float 0.))))))
  and flat (a, b, c, d) = (a, (b, (c, d))) in
  check t "end_to_end" (List.map (fun c -> flat (ours c)) Catalog.end_to_end)
    (List.map (fun o -> flat (metric o)) (list "end_to_end"));
  check t "per_layer" (List.map (fun c -> flat (ours c)) Catalog.per_layer)
    (List.map (fun o -> flat (metric o)) (list "per_layer"))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail leaves ten samples beyond" `Quick test_tail_rule;
          Alcotest.test_case "median" `Quick test_median;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "determined by the seed" `Quick test_schedule_determinism;
          Alcotest.test_case "Poisson arrivals, weighted classes" `Quick test_schedule_shape;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time subtracts covered children" `Quick test_self_time;
          Alcotest.test_case "recorder nesting" `Quick test_recorder_nesting;
        ] );
      ("catalog", [ Alcotest.test_case "BENCHMARK.json matches" `Quick test_catalog ]);
    ]

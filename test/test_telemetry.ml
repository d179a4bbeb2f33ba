(* The telemetry layer: JSON round-trips (including hostile strings),
   monotonic timing, per-run counter scoping, and the observation
   contract — enabling telemetry must leave every quick-bench digest
   byte-identical at any job count, and a traced run must produce
   schema-valid JSONL covering the runner/pool/memo/decider phases. *)

open Locald_graph
open Locald_local
open Locald_core
open Locald_runtime

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

module Json = Telemetry.Json

(* ------------------------------------------------------------------ *)
(* JSON emitter / parser                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip v = Json.of_string (Json.to_string v)

let test_json_scalars () =
  List.iter
    (fun v -> check bool (Json.to_string v ^ " round-trips") true (roundtrip v = v))
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Int min_int;
      Json.Float 0.0;
      Json.Float 3.0;
      Json.Float (-2.5);
      Json.Float 1.0e-9;
      Json.Float 0.1;
      Json.Float Float.pi;
      Json.String "";
      Json.String "plain";
      Json.List [];
      Json.Obj [];
      Json.List [ Json.Int 1; Json.String "x"; Json.Null ];
      Json.Obj [ ("a", Json.Int 1); ("b", Json.List [ Json.Bool false ]) ];
    ]

let test_json_escaping () =
  (* The bug the emitter fixes: the old hand-rolled bench writer pasted
     ids into a format string, so a workload id containing a quote or a
     backslash produced invalid JSON. *)
  let hostile = "a\"b\\c\nd\te\r\x01f" in
  let entry =
    Json.Obj
      [
        ("wall_s", Json.Float 0.123456);
        ("jobs", Json.Int 4);
        ("n", Json.Int 2047);
        ("result_digest", Json.String hostile);
      ]
  in
  let parsed = roundtrip entry in
  check bool "hostile bench entry round-trips" true (parsed = entry);
  (match Json.member "result_digest" parsed with
  | Some (Json.String s) -> check Alcotest.string "hostile id preserved" hostile s
  | _ -> Alcotest.fail "result_digest missing after round-trip");
  (* The quoted form itself must be a valid JSON string document. *)
  check bool "escape_string emits parseable JSON" true
    (Json.of_string (Json.escape_string hostile) = Json.String hostile);
  (* Non-finite floats have no JSON syntax: they degrade to null rather
     than emitting the unparseable "nan"/"inf" the old writer would. *)
  check bool "nan degrades to null" true
    (Json.to_string (Json.Float Float.nan) = "null")

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | _ -> Alcotest.failf "parser accepted %S" s
      | exception Json.Parse_error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "nul"; "{\"a\" 1}" ]

(* Arbitrary JSON values. Floats are kept finite, non-huge and
   fraction-bearing via a bounded range: integral doubles at or above
   1e15 legitimately print without '.' or 'e' and re-parse as [Int],
   which is outside the emitter's documented round-trip domain. *)
let json_gen =
  let open QCheck2.Gen in
  let finite_float =
    map (fun f -> if Float.is_finite f then Float.rem f 1e12 else 0.) float
  in
  let any_string = string_size ~gen:char (int_bound 12) in
  sized
  @@ fix (fun self depth ->
         let scalar =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) QCheck2.Gen.bool;
               map (fun i -> Json.Int i) QCheck2.Gen.int;
               map (fun f -> Json.Float f) finite_float;
               map (fun s -> Json.String s) any_string;
             ]
         in
         if depth <= 0 then scalar
         else
           oneof
             [
               scalar;
               map
                 (fun l -> Json.List l)
                 (list_size (int_bound 4) (self (depth / 2)));
               map
                 (fun l -> Json.Obj l)
                 (list_size (int_bound 4)
                    (pair any_string (self (depth / 2))));
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~name:"of_string (to_string v) = v" ~count:500 json_gen
    (fun v -> roundtrip v = v)

(* ------------------------------------------------------------------ *)
(* Monotonic timing                                                    *)
(* ------------------------------------------------------------------ *)

let test_timing_monotonic () =
  let t = ref (Timing.now ()) in
  for _ = 1 to 1000 do
    let t' = Timing.now () in
    if t' < !t then Alcotest.fail "Timing.now went backwards";
    t := t'
  done;
  let t0 = Timing.now () in
  check bool "duration_since is never negative" true
    (Timing.duration_since t0 >= 0.);
  let (), d = Timing.time (fun () -> Sys.opaque_identity (ignore [| 1; 2 |])) in
  check bool "time reports a non-negative duration" true (d >= 0.)

(* ------------------------------------------------------------------ *)
(* Per-run counter scoping                                             *)
(* ------------------------------------------------------------------ *)

(* A workload with nontrivial memo traffic: the exhaustive decider's
   quotient scan notes a hit per reused trie lookup and a miss per
   fresh decide. *)
let memo_workload () = Sweeps.exhaustive_decider ()

let test_per_run_memo_counts () =
  (* The regression this pins: the old process-global counters were
     never reset between bench workloads, so the second of two
     back-to-back runs reported cumulative traffic. *)
  Telemetry.new_run ();
  let z = Memo.run_stats () in
  check int "fresh run starts at zero hits" 0 z.Memo.hits;
  check int "fresh run starts at zero misses" 0 z.Memo.misses;
  ignore (memo_workload ());
  let s1 = Memo.run_stats () in
  check bool "workload produced memo traffic" true (s1.Memo.hits + s1.Memo.misses > 0);
  Telemetry.new_run ();
  ignore (memo_workload ());
  let s2 = Memo.run_stats () in
  check int "second run reports independent hits" s1.Memo.hits s2.Memo.hits;
  check int "second run reports independent misses" s1.Memo.misses s2.Memo.misses;
  check int "second run reports independent distinct" s1.Memo.distinct
    s2.Memo.distinct;
  (* Stale handles made before the scope change must re-resolve: a
     counter created in an earlier run reads the current run. *)
  let c = Telemetry.Counter.make "test.scoped" in
  Telemetry.Counter.add c 5;
  Telemetry.new_run ();
  check int "handle re-resolves into the new run" 0 (Telemetry.Counter.get c);
  Telemetry.Counter.incr c;
  check int "and keeps counting there" 1 (Telemetry.Counter.get c)

(* ------------------------------------------------------------------ *)
(* Observation contract: telemetry cannot change results               *)
(* ------------------------------------------------------------------ *)

let with_jobs jobs f =
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs 1) f

let with_full_telemetry f =
  let path = Filename.temp_file "locald-telemetry" ".jsonl" in
  Telemetry.set_metrics true;
  Telemetry.open_sink path;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.close_sink ();
      Telemetry.set_metrics false;
      Sys.remove path)
    f

(* Over the quick-tier workloads BENCH_quick.json pins. *)
let test_telemetry_preserves_digests () =
  List.iter
    (fun (w : Registry.pinned) ->
      let name = w.p_name and work () = snd (w.p_run ()) in
      let baseline = with_jobs 1 work in
      check bool (name ^ ": telemetry was off for the baseline") false
        (Telemetry.active ());
      let on1 = with_full_telemetry (fun () -> with_jobs 1 work) in
      let on4 = with_full_telemetry (fun () -> with_jobs 4 work) in
      check Alcotest.string (name ^ ": traced jobs=1 digest unchanged") baseline
        on1;
      check Alcotest.string (name ^ ": traced jobs=4 digest unchanged") baseline
        on4)
    (Registry.tier_workloads Registry.Quick)

(* ------------------------------------------------------------------ *)
(* Trace files: schema validity and phase coverage                     *)
(* ------------------------------------------------------------------ *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

let trace_run work =
  let path = Filename.temp_file "locald-trace" ".jsonl" in
  Telemetry.open_sink path;
  Fun.protect ~finally:(fun () -> Telemetry.close_sink ()) work;
  let lines = read_lines path in
  Sys.remove path;
  lines

(* Every line parses, carries a string "ev" field, and the file is
   bracketed by run-start (with the schema tag) and run-end. *)
let validate_schema lines =
  check bool "trace is non-empty" true (List.length lines >= 2);
  let records =
    List.map
      (fun line ->
        match Json.of_string line with
        | v -> v
        | exception Json.Parse_error msg ->
            Alcotest.failf "unparseable trace line %S: %s" line msg)
      lines
  in
  List.iter
    (fun r ->
      match Json.member "ev" r with
      | Some (Json.String _) -> ()
      | _ -> Alcotest.failf "record lacks an \"ev\" string: %s" (Json.to_string r))
    records;
  let first = List.hd records and last = List.nth records (List.length records - 1) in
  check bool "first record is run-start" true
    (Json.member "ev" first = Some (Json.String "run-start"));
  check bool "run-start carries the schema tag" true
    (Json.member "schema" first = Some (Json.String Telemetry.schema));
  check bool "last record is run-end" true
    (Json.member "ev" last = Some (Json.String "run-end"));
  records

let span_names records =
  List.filter_map
    (fun r ->
      match (Json.member "ev" r, Json.member "name" r) with
      | Some (Json.String "span"), Some (Json.String name) -> Some name
      | _ -> None)
    records

let test_trace_certify_gmr_schema () =
  let w =
    List.find (fun w -> w.Registry.p_name = "certify-gmr") Registry.workloads
  in
  let lines = trace_run (fun () -> ignore (w.Registry.p_run ())) in
  let records = validate_schema lines in
  check bool "certify run recorded an analysis.certify span" true
    (List.mem "analysis.certify" (span_names records))

let test_trace_phase_coverage () =
  (* table1 drives the full stack: Decider.evaluate over prepared
     runners, memo misses under the default exact mode, pool fan-outs.
     The CI trace check asserts the same four phase prefixes with jq. *)
  let lines =
    trace_run (fun () -> ignore (Experiments.table1 ~quick:true ~seed:42 ()))
  in
  let records = validate_schema lines in
  let names = span_names records in
  let prefixed p =
    List.exists
      (fun name ->
        String.length name >= String.length p
        && String.sub name 0 (String.length p) = p)
      names
  in
  List.iter
    (fun p -> check bool ("trace has a " ^ p ^ "* span") true (prefixed p))
    [ "runner."; "pool."; "memo."; "decider." ];
  (* Span records describe their nesting. *)
  List.iter
    (fun r ->
      match Json.member "ev" r with
      | Some (Json.String "span") ->
          (match Json.member "dur_s" r with
          | Some (Json.Float d) ->
              if d < 0. then Alcotest.fail "negative span duration"
          | _ -> Alcotest.fail "span lacks dur_s");
          (match Json.member "depth" r with
          | Some (Json.Int d) when d >= 0 -> ()
          | _ -> Alcotest.fail "span lacks a depth");
          (match Json.member "domain" r with
          | Some (Json.Int _) -> ()
          | _ -> Alcotest.fail "span lacks a domain id")
      | _ -> ())
    records

(* Fault events: a lossy traced run logs each injected drop with its
   link, and the record set matches the run's own statistics. *)
let test_trace_fault_events () =
  let lg = Labelled.init (Gen.grid 4 4) (fun v -> v mod 3) in
  let alg =
    Algorithm.make ~name:"fingerprint" ~radius:1 (fun view ->
        Iso.view_signature Hashtbl.hash view)
  in
  let plan = Faults.make ~seed:11 ~drop:0.2 () in
  let ids = Ids.sequential (Labelled.order lg) in
  let stats = ref None in
  let lines =
    trace_run (fun () ->
        stats := Some (snd (Fault_runner.run ~plan alg lg ~ids)))
  in
  let records = validate_schema lines in
  let stats = Option.get !stats in
  let drops =
    List.filter
      (fun r ->
        Json.member "ev" r = Some (Json.String "event")
        && Json.member "name" r = Some (Json.String "fault.drop"))
      records
  in
  check int "one fault.drop event per dropped message"
    stats.Fault_runner.dropped (List.length drops);
  List.iter
    (fun r ->
      match
        (Json.member "round" r, Json.member "src" r, Json.member "dst" r)
      with
      | Some (Json.Int _), Some (Json.Int _), Some (Json.Int _) -> ()
      | _ -> Alcotest.fail "fault.drop lacks round/src/dst fields")
    drops;
  check bool "lossy run recorded a faults.run span" true
    (List.mem "faults.run" (span_names records))

let () =
  Alcotest.run "telemetry"
    [
      ( "json",
        [
          Alcotest.test_case "scalar and container round-trips" `Quick
            test_json_scalars;
          Alcotest.test_case "hostile strings escape correctly" `Quick
            test_json_escaping;
          Alcotest.test_case "parser rejects malformed input" `Quick
            test_json_rejects_garbage;
          QCheck_alcotest.to_alcotest prop_json_roundtrip;
        ] );
      ( "timing",
        [ Alcotest.test_case "monotonic clock" `Quick test_timing_monotonic ] );
      ( "run scoping",
        [
          Alcotest.test_case "per-run memo counters" `Quick
            test_per_run_memo_counts;
        ] );
      ( "observation contract",
        [
          Alcotest.test_case "digests unchanged under full telemetry" `Slow
            test_telemetry_preserves_digests;
        ] );
      ( "traces",
        [
          Alcotest.test_case "certify-gmr trace is schema-valid" `Quick
            test_trace_certify_gmr_schema;
          Alcotest.test_case "table1 trace covers all phases" `Quick
            test_trace_phase_coverage;
          Alcotest.test_case "fault events land in the trace" `Quick
            test_trace_fault_events;
        ] );
    ]

(* The pin harness: it reruns the registry's pinned workloads and
   writes or checks their digests. Three tiers, each with its own pin
   file: the quick tier (BENCH_quick.json), the scale tier
   (BENCH_scale.json) and the serve tier, a load generator against a
   running [locald serve] (BENCH_serve.json). The paper's experiments
   are [locald all]; the benchmark is perfbench. *)

open Locald_core

(* ------------------------------------------------------------------ *)
(* The quick and scale tiers (BENCH_quick.json, BENCH_scale.json)     *)
(* ------------------------------------------------------------------ *)

(* Each registry workload runs at --jobs 1 and --jobs 4 and reports
   wall-clock, problem size and a digest of the full result; equal
   digests across job counts are the pool's determinism contract,
   checked here on every bench run. The scale tier (BENCH_scale.json)
   is one to two orders of magnitude up and additionally runs each
   workload under both engine backends — the async rows pin the
   adversarial scheduler to the same digests as the synchronous
   simulator. *)

type quick_entry = {
  qe_w : Registry.pinned;
  qe_jobs : int;
  qe_backend : Locald_local.Backend.t option;
      (* None on quick rows (the engine default); scale rows carry the
         explicit backend dimension *)
  qe_wall : float;
  qe_n : int;
  qe_digest : string;
  qe_hits : int;
  qe_misses : int;
  qe_orbit_classes : int;  (* distinct decorated-ball classes decided *)
}

let tier_backends = function
  | Registry.Quick -> [ None ]
  | Registry.Scale ->
      [
        Some Locald_local.Backend.Sync;
        Some
          (Locald_local.Backend.Async
             { Locald_local.Async_runner.sched_seed = 7; fifo = false });
      ]

let backend_suffix = function
  | None | Some Locald_local.Backend.Sync -> ""
  | Some (Locald_local.Backend.Async _) -> "+async"

let entry_key e =
  Printf.sprintf "%s@j%d%s" e.qe_w.p_name e.qe_jobs (backend_suffix e.qe_backend)

let collect_entries tier workloads =
  let row (w : Registry.pinned) jobs backend =
    Locald_runtime.Pool.set_default_jobs jobs;
    (* Per-row cache accounting: a fresh telemetry run scopes every
       counter to this workload, so back-to-back rows report
       independent (not cumulative) counts. *)
    Locald_runtime.Telemetry.new_run ();
    let (n, digest), wall = Locald_runtime.Timing.time (w.p_run ?backend) in
    let ms = Locald_runtime.Memo.run_stats () in
    Printf.printf "%-32s jobs=%d%s n=%-8d %8.3fs  %s\n%!" w.p_name jobs
      (backend_suffix backend) n wall digest;
    {
      qe_w = w;
      qe_jobs = jobs;
      qe_backend = backend;
      qe_wall = wall;
      qe_n = n;
      qe_digest = digest;
      qe_hits = ms.Locald_runtime.Memo.hits;
      qe_misses = ms.Locald_runtime.Memo.misses;
      qe_orbit_classes = ms.Locald_runtime.Memo.distinct;
    }
  in
  let entries =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun jobs -> List.map (row w jobs) (tier_backends tier))
          [ 1; 4 ])
      workloads
  in
  Locald_runtime.Pool.set_default_jobs 1;
  entries

(* Every row of a workload — across job counts AND backends — must
   produce the same digest: the pool's determinism contract and the
   async backend's pin to the synchronous simulator. *)
let disagreements entries =
  List.filter_map
    (fun e ->
      let first = List.find (fun f -> f.qe_w.p_name = e.qe_w.p_name) entries in
      if e.qe_digest = first.qe_digest then None
      else
        Some
          (Printf.sprintf
             "%s digest differs from %s — determinism contract violated"
             (entry_key e) (entry_key first)))
    entries

(* [--only] filters (the CI smoke job runs the cheap scale workloads
   only; pins for filtered-out rows are ignored). *)
let tier_workloads ~only tier =
  let workloads = Registry.tier_workloads tier in
  List.iter
    (fun id ->
      if not (List.exists (fun w -> w.Registry.p_name = id) workloads) then begin
        Printf.eprintf "bench: --only %s names no workload in this tier\n" id;
        exit Locald_runtime.Shard.Exit.usage
      end)
    only;
  if only = [] then workloads
  else List.filter (fun w -> List.mem w.Registry.p_name only) workloads

let tier_name = function Registry.Quick -> "quick" | Registry.Scale -> "scale"

(* The bench JSON writer and a live checkpoint writer must never
   interleave output: a shard checkpoint flushes mid-line-accurate
   JSONL on its own fd, and a bench write racing it in the same
   process could only happen through a harness bug — refuse loudly
   rather than corrupt either stream. *)
let refuse_if_checkpointing () =
  match Locald_runtime.Checkpoint.active_writer_paths () with
  | [] -> ()
  | paths ->
      Printf.eprintf
        "bench: refusing to write bench JSON while %d checkpoint writer(s) \
         are open in this process:\n"
        (List.length paths);
      List.iter (Printf.eprintf "bench:   open writer: %s\n") paths;
      exit Locald_runtime.Shard.Exit.usage

(* A workload whose rows disagree fails the bench (exit 1) and the file
   is not written: a pin file must never record a contract
   violation. *)
let write_entries path entries =
  (match disagreements entries with
  | [] -> ()
  | ds ->
      List.iter (Printf.printf "FAIL: %s\n") ds;
      Printf.printf "bench: %s not written\n" path;
      exit 1);
  (* One JSON object keyed by entry ([parse_pins] reads it back), one
     entry per line, each emitted through the telemetry JSON module so
     hostile workload ids — quotes, backslashes — stay valid JSON. Wall
     times are rounded to the microsecond the old %.6f writer printed
     at. *)
  let entry_json e =
    Locald_runtime.Telemetry.Json.(
      Obj
        ([
           ("wall_s", Float (Float.round (e.qe_wall *. 1e6) /. 1e6));
           ("jobs", Int e.qe_jobs);
         ]
        @ (match e.qe_backend with
          | None -> []
          | Some Locald_local.Backend.Sync -> [ ("backend", String "sync") ]
          | Some (Locald_local.Backend.Async _) ->
              [ ("backend", String "async") ])
        @ [
            ("n", Int e.qe_n);
            ("hits", Int e.qe_hits);
            ("misses", Int e.qe_misses);
            ("orbit_classes", Int e.qe_orbit_classes);
            ("result_digest", String e.qe_digest);
          ]))
  in
  let oc = open_out path in
  output_string oc "{\n";
  List.iteri
    (fun i e ->
      Printf.fprintf oc "  %s: %s%s\n"
        (Locald_runtime.Telemetry.Json.escape_string (entry_key e))
        (Locald_runtime.Telemetry.Json.to_string (entry_json e))
        (if i = List.length entries - 1 then "" else ","))
    entries;
  output_string oc "}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

let run_tier_bench ~only tier path =
  refuse_if_checkpointing ();
  print_endline "=================================================================";
  Printf.printf " %s bench (machine-readable)\n" (tier_name tier);
  print_endline "=================================================================";
  write_entries path (collect_entries tier (tier_workloads ~only tier))

(* ------------------------------------------------------------------ *)
(* --check: CI smoke gate against the committed pins                   *)
(* ------------------------------------------------------------------ *)

module Json = Locald_runtime.Telemetry.Json

(* A pin file is one JSON object keyed by entry, each entry carrying its
   wall_s and result_digest. A file that is not ends the check with one
   CHECK FAIL line, exit 1. *)
let parse_pins path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.printf "CHECK FAIL: %s: %s\n" path msg;
        exit 1)
      fmt
  in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let entries =
    match Json.of_string text with
    | Json.Obj entries -> entries
    | _ -> fail "not a JSON object of pinned entries"
    | exception Json.Parse_error msg -> fail "malformed JSON: %s" msg
  in
  List.map
    (fun (key, e) ->
      let wall =
        match Json.member "wall_s" e with
        | Some (Json.Float w) -> w
        | Some (Json.Int w) -> float_of_int w
        | _ -> fail "entry %s has no numeric wall_s" key
      in
      match Json.member "result_digest" e with
      | Some (Json.String d) -> (key, (wall, d))
      | _ -> fail "entry %s has no result_digest" key)
    entries

(* A hits-gated workload's decide-once cache must actually fire: a
   refactor that silently stops threading the memo through its cold
   path keeps the digests intact but zeroes the hit columns, and this
   gate is what catches it. Wall-clock regression gates sit on the
   tentpole workloads' @j1 rows only — micro-workloads are too noisy
   for a CI timing assertion. *)
let run_check ~only tier path =
  let pins = parse_pins path in
  if pins = [] then begin
    Printf.printf "CHECK: no pins parsed from %s\n" path;
    exit 1
  end;
  print_endline "=================================================================";
  Printf.printf " CHECK: %s bench vs pins in %s\n" (tier_name tier) path;
  print_endline "=================================================================";
  let entries = collect_entries tier (tier_workloads ~only tier) in
  let wall_gated e = e.qe_w.p_wall_gated && e.qe_jobs = 1 in
  let fail = ref false in
  List.iter
    (fun d ->
      Printf.printf "CHECK FAIL: %s\n" d;
      fail := true)
    (disagreements entries);
  List.iter
    (fun e ->
      let key = entry_key e in
      (match List.assoc_opt key pins with
      | None ->
          Printf.printf "CHECK FAIL: %s has no pinned entry\n" key;
          fail := true
      | Some (pinned_wall, pinned_digest) ->
          if e.qe_digest <> pinned_digest then begin
            Printf.printf "CHECK FAIL: %s digest %s differs from pinned %s\n"
              key e.qe_digest pinned_digest;
            fail := true
          end;
          (* 2x relative plus a 50ms absolute grace: the relative bound
             is the regression signal, the absolute term keeps
             scheduler jitter on millisecond workloads from tripping
             it. *)
          if wall_gated e && e.qe_wall > (2.0 *. pinned_wall) +. 0.05 then begin
            Printf.printf
              "CHECK FAIL: %s wall %.6fs regressed more than 2x over pinned \
               %.6fs\n"
              key e.qe_wall pinned_wall;
            fail := true
          end);
      if e.qe_w.p_hits_gated && e.qe_hits <= 0 then begin
        Printf.printf
          "CHECK FAIL: %s reports no memo hits — the decide-once cache no \
           longer fires on this path\n"
          key;
        fail := true
      end)
    entries;
  (* The other direction: a pin that no row produced is stale (a
     workload renamed or deleted, or a job count or backend the tier no
     longer runs). Under --only, the named workloads' pins are the ones
     in the run. *)
  let produced = List.map entry_key entries in
  List.iter
    (fun (key, _) ->
      let workload =
        match String.index_opt key '@' with
        | Some i -> String.sub key 0 i
        | None -> key
      in
      if (only = [] || List.mem workload only) && not (List.mem key produced)
      then begin
        Printf.printf "CHECK FAIL: pinned %s was produced by no row\n" key;
        fail := true
      end)
    pins;
  if !fail then exit 1;
  let walls = List.map entry_key (List.filter wall_gated entries) in
  Printf.printf
    "CHECK: %d entries match their pinned digests%s%s\n" (List.length entries)
    (if walls = [] then "" else "; " ^ String.concat ", " walls ^ " within 2x")
    (if List.exists (fun e -> e.qe_w.p_hits_gated) entries then
       "; memo hits nonzero where gated"
     else "")

(* ------------------------------------------------------------------ *)
(* The serve tier (BENCH_serve.json)                                  *)
(* ------------------------------------------------------------------ *)

(* The load generator for a running [locald serve]: two concurrent
   connections, three rounds of a five-request mix with distinct
   per-request backend/seed configs, requests alternating between the
   connections. Every response's result digest feeds one aggregate
   [response_digest] — pinning it pins the daemon's whole
   request-interpretation path (framing, per-request config threading,
   warm engine reuse) to one string, exactly as the quick tier pins the
   library entry points. Latency is measured client-side per
   request. *)

module Proto = Locald_runtime.Proto

let serve_async_config seed =
  { Proto.no_config with Proto.c_backend = Some "async"; c_sched_seed = Some seed }

(* The mix: the tentpole exhaustive workload under the startup default
   and under an explicit async scheduler (distinct configs on the same
   workload — the engine cache must keep both), the ablation-1
   variant, a partial-range seed sweep and the certify sweep. *)
let serve_mix =
  [
    ("exhaustive-decider", None, None, Proto.no_config);
    ("exhaustive-decider", None, None, serve_async_config 7);
    ("exhaustive-decider-a1", None, None, Proto.no_config);
    ("corollary1-curve", Some 0, Some 128, Proto.no_config);
    ("certify-gmr", None, None, Proto.no_config);
  ]

let serve_rounds = 3
let serve_connections = 2

let serve_fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "bench --serve: %s\n" msg;
      exit 1)
    fmt

(* One synchronous request on [fd]: returns the response's result
   digest and the client-side wall time. Busy or error responses fail
   the bench loudly — the generator never outruns the inflight bound
   (it waits for each response), so either reply means a daemon bug. *)
let serve_call fd ~id (workload, lo, hi, config) =
  let req = Proto.request ~workload ?lo ?hi ~config ~id Proto.Decide in
  let resp, wall =
    Locald_runtime.Timing.time (fun () ->
        Proto.write_frame fd (Proto.request_to_json req);
        Proto.read_frame fd)
  in
  match resp with
  | None -> serve_fail "daemon closed the connection mid-benchmark"
  | Some json -> (
      let v = Proto.response_view json in
      if not v.Proto.v_ok then
        serve_fail "request %d (%s) answered %s" id workload
          (Locald_runtime.Telemetry.Json.to_string json);
      match Option.bind v.Proto.v_result (Json.member "digest") with
      | Some (Json.String d) -> (d, wall)
      | _ -> serve_fail "request %d (%s) carries no result digest" id workload)

let serve_metrics_counter fd ~id name =
  Proto.write_frame fd
    (Proto.request_to_json (Proto.request ~id Proto.Metrics));
  match Proto.read_frame fd with
  | None -> serve_fail "daemon closed the connection on a metrics request"
  | Some json -> (
      let v = Proto.response_view json in
      match
        Option.bind v.Proto.v_result (fun r ->
            Option.bind (Json.member "counters" r) (Json.member name))
      with
      | Some (Json.Int n) -> n
      | _ -> serve_fail "metrics response carries no %S counter" name)

type serve_entry = {
  se_digests : string list;  (* per-request result digests, in order *)
  se_wall : float;
  se_requests : int;
  se_mean_ms : float;
  se_max_ms : float;
  se_memo_hits : int;
}

let serve_entry_key = Printf.sprintf "serve-mixed@c%d" serve_connections

let run_serve_load socket =
  let conns =
    Array.init serve_connections (fun _ -> Proto.connect_unix socket)
  in
  let digests = ref [] in
  let latencies = ref [] in
  let id = ref 0 in
  let (), wall =
    Locald_runtime.Timing.time (fun () ->
        for _round = 1 to serve_rounds do
          List.iter
            (fun spec ->
              incr id;
              (* Alternate connections per request: the daemon always
                 has both connections live with interleaved traffic. *)
              let fd = conns.(!id mod serve_connections) in
              let digest, dt = serve_call fd ~id:!id spec in
              digests := digest :: !digests;
              latencies := dt :: !latencies)
            serve_mix
        done)
  in
  let hits = serve_metrics_counter conns.(0) ~id:0 "memo.hits" in
  Array.iter Unix.close conns;
  let lats = List.rev_map (fun s -> s *. 1000.) !latencies in
  let requests = List.length lats in
  {
    se_digests = List.rev !digests;
    se_wall = wall;
    se_requests = requests;
    se_mean_ms = List.fold_left ( +. ) 0. lats /. float_of_int requests;
    se_max_ms = List.fold_left Float.max 0. lats;
    se_memo_hits = hits;
  }

let write_serve_entry path e =
  (* Same layout as the other tiers, so [parse_pins] reads the pin
     back. Only [response_digest] is pinned; the timing fields are
     informational. *)
  let json =
    Locald_runtime.Telemetry.Json.(
      Obj
        [
          ("wall_s", Float (Float.round (e.se_wall *. 1e6) /. 1e6));
          ("connections", Int serve_connections);
          ("requests", Int e.se_requests);
          ("rps", Float (Float.round (float_of_int e.se_requests /. e.se_wall) /. 1.));
          ("mean_ms", Float (Float.round (e.se_mean_ms *. 1e3) /. 1e3));
          ("max_ms", Float (Float.round (e.se_max_ms *. 1e3) /. 1e3));
          ("memo_hits", Int e.se_memo_hits);
          ("result_digest", String (Locald_runtime.Shard.digest e.se_digests));
        ])
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  %s: %s\n}\n"
    (Locald_runtime.Telemetry.Json.escape_string serve_entry_key)
    (Locald_runtime.Telemetry.Json.to_string json);
  close_out oc;
  Printf.printf "wrote %s\n" path

let print_serve_entry e =
  Printf.printf
    "%-32s conns=%d requests=%d %8.3fs  %.1f req/s  mean %.2fms  max %.2fms  \
     memo hits %d\n  response digest %s\n%!"
    serve_entry_key serve_connections e.se_requests e.se_wall
    (float_of_int e.se_requests /. e.se_wall)
    e.se_mean_ms e.se_max_ms e.se_memo_hits (Locald_runtime.Shard.digest e.se_digests)

let run_serve_bench ~socket path =
  print_endline "=================================================================";
  Printf.printf " serve tier (load generator against %s)\n" socket;
  print_endline "=================================================================";
  let e = run_serve_load socket in
  print_serve_entry e;
  write_serve_entry path e

let run_check_serve ~socket path =
  let pins = parse_pins path in
  print_endline "=================================================================";
  Printf.printf " CHECK: serve tier vs pins in %s\n" path;
  print_endline "=================================================================";
  let e = run_serve_load socket in
  print_serve_entry e;
  let fail = ref false in
  (match List.assoc_opt serve_entry_key pins with
  | None ->
      Printf.printf "CHECK FAIL: %s has no pinned entry in %s\n"
        serve_entry_key path;
      fail := true
  | Some (_, pinned_digest) ->
      if Locald_runtime.Shard.digest e.se_digests <> pinned_digest then begin
        Printf.printf
          "CHECK FAIL: %s response digest %s differs from pinned %s\n"
          serve_entry_key (Locald_runtime.Shard.digest e.se_digests) pinned_digest;
        fail := true
      end);
  (* The other direction, as in [--check]: the run produces one entry,
     so any other pinned key is stale. *)
  List.iter
    (fun (key, _) ->
      if key <> serve_entry_key then begin
        Printf.printf "CHECK FAIL: pinned %s was produced by no row\n" key;
        fail := true
      end)
    pins;
  (* Cross-tier pin: the mix's first request is the full-range
     exhaustive decider under the daemon's default config — its result
     digest must equal the quick tier's committed one-shot digest.
     That is the acceptance contract in one line: a resident daemon
     answers byte-identically to a cold CLI run. *)
  (match parse_pins "BENCH_quick.json" with
  | exception Sys_error _ ->
      print_endline "CHECK: BENCH_quick.json not found; cross-tier pin skipped"
  | quick_pins -> (
      match
        (List.assoc_opt "exhaustive-decider@j1" quick_pins, e.se_digests)
      with
      | Some (_, quick_digest), first :: _ ->
          if first <> quick_digest then begin
            Printf.printf
              "CHECK FAIL: serve exhaustive-decider digest %s differs from \
               quick-tier pin %s\n"
              first quick_digest;
            fail := true
          end
      | _ ->
          print_endline
            "CHECK: no exhaustive-decider@j1 pin; cross-tier pin skipped"));
  (* The daemon's reason to exist: the repeated mix must hit warm
     memo tables across requests. *)
  if e.se_memo_hits <= 0 then begin
    Printf.printf
      "CHECK FAIL: daemon reports no cross-request memo hits after %d \
       repeated-mix requests\n"
      e.se_requests;
    fail := true
  end;
  if !fail then exit 1;
  Printf.printf
    "CHECK: serve response digest matches its pin; cross-request memo hits = \
     %d\n"
    e.se_memo_hits

(* [--scale]/[--check-scale] accept an optional pin path plus any
   number of [--only WORKLOAD] filters. *)
let parse_path_and_only ~default rest =
  let rec go path only = function
    | [] -> (Option.value path ~default, List.rev only)
    | "--only" :: w :: rest -> go path (w :: only) rest
    | "--only" :: [] ->
        prerr_endline "bench: --only needs a workload id";
        exit Locald_runtime.Shard.Exit.usage
    | p :: rest -> (
        match path with
        | None -> go (Some p) only rest
        | Some _ ->
            Printf.eprintf "bench: unexpected argument %s\n" p;
            exit Locald_runtime.Shard.Exit.usage)
  in
  go None [] rest

let () =
  match Array.to_list Sys.argv with
  | _ :: "--json" :: ([] | [ _ ] as rest) ->
      let path = match rest with p :: _ -> p | [] -> "BENCH_quick.json" in
      run_tier_bench ~only:[] Registry.Quick path
  | _ :: "--check" :: ([] | [ _ ] as rest) ->
      let path = match rest with p :: _ -> p | [] -> "BENCH_quick.json" in
      run_check ~only:[] Registry.Quick path
  | _ :: "--scale" :: rest ->
      let path, only = parse_path_and_only ~default:"BENCH_scale.json" rest in
      run_tier_bench ~only Registry.Scale path
  | _ :: "--check-scale" :: rest ->
      let path, only = parse_path_and_only ~default:"BENCH_scale.json" rest in
      run_check ~only Registry.Scale path
  | _ :: "--serve" :: socket :: ([] | [ _ ] as rest) ->
      let path = match rest with p :: _ -> p | [] -> "BENCH_serve.json" in
      run_serve_bench ~socket path
  | _ :: "--check-serve" :: socket :: ([] | [ _ ] as rest) ->
      let path = match rest with p :: _ -> p | [] -> "BENCH_serve.json" in
      run_check_serve ~socket path
  | _ :: (("--serve" | "--check-serve") as flag) :: [] ->
      Printf.eprintf "bench: %s needs a daemon socket path\n" flag;
      exit Locald_runtime.Shard.Exit.usage
  | argv ->
      (* No argument, or any other, writes no file: every write names
         its tier, so nothing rewrites the committed pins by default. *)
      (match argv with
      | _ :: (_ :: _ as args) ->
          Printf.eprintf "bench: unknown arguments: %s\n"
            (String.concat " " args)
      | [] | [ _ ] -> ());
      prerr_string
        "usage: main.exe --json [PATH]\n\
        \       main.exe --check [PATH]\n\
        \       main.exe --scale [PATH] [--only WORKLOAD]...\n\
        \       main.exe --check-scale [PATH] [--only WORKLOAD]...\n\
        \       main.exe --serve SOCKET [PATH]\n\
        \       main.exe --check-serve SOCKET [PATH]\n";
      exit Locald_runtime.Shard.Exit.usage

(* The decision service: wire protocol round-trips, incremental frame
   decoding (its two-tier failure taxonomy and its cost per byte fed),
   the JSON parser's depth bound, the generic memo table under two
   domains, and end-to-end daemon behaviour — concurrent clients with
   distinct per-request configs answered byte-identically to one-shot
   runs, per-request configs read as the CLI reads its flags, retired
   request fields ignored, cross-request memo hits, busy
   backpressure, malformed-frame survival, graceful drain, and the
   executor: overlapping requests with replies in per-connection
   order, a raising handler costing one request, and first-time engine
   builds racing on a fresh daemon. *)

open Locald_runtime
open Locald_core
module Backend = Locald_local.Backend
module Json = Telemetry.Json

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Protocol round-trips                                                *)
(* ------------------------------------------------------------------ *)

let request_gen =
  let open QCheck.Gen in
  let op = oneofl [ Proto.Decide; Proto.Certify; Proto.Metrics; Proto.Ping ] in
  let small_string = string_size ~gen:printable (int_range 0 12) in
  let config =
    map
      (fun (backend, seed, fifo) ->
        { Proto.c_backend = backend; c_sched_seed = seed; c_fifo = fifo })
      (triple
         (opt (oneofl [ "sync"; "async" ]))
         (opt (int_range 0 1000))
         (opt bool))
  in
  map
    (fun (id, op, workload, lo, hi, config) ->
      { Proto.r_id = id; r_op = op; r_workload = workload; r_lo = lo;
        r_hi = hi; r_config = config })
    (tup6 (int_range 0 10000) op (opt small_string) (opt (int_range 0 99999))
       (opt (int_range 0 99999))
       config)

let request_roundtrips =
  QCheck.Test.make ~name:"proto: request round-trips through JSON" ~count:500
    (QCheck.make request_gen) (fun req ->
      match Proto.request_of_json (Proto.request_to_json req) with
      | Ok req' -> req' = req
      | Error msg -> QCheck.Test.fail_reportf "rejected own encoding: %s" msg)

let test_request_rejects_ill_typed () =
  let reject json msg =
    match Proto.request_of_json json with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted %s" msg
  in
  reject (Json.Obj [ ("op", Json.String "decide") ]) "a request without an id";
  reject
    (Json.Obj [ ("id", Json.String "7"); ("op", Json.String "decide") ])
    "a string where the id belongs";
  reject
    (Json.Obj [ ("id", Json.Int 1); ("op", Json.String "decode") ])
    "an unknown op";
  reject
    (Json.Obj
       [ ("id", Json.Int 1); ("op", Json.String "decide");
         ("sched_seed", Json.String "4") ])
    "a string where the scheduler seed belongs";
  (* Unknown fields are tolerated: old daemons must survive newer
     clients. *)
  match
    Proto.request_of_json
      (Json.Obj
         [ ("id", Json.Int 1); ("op", Json.String "ping");
           ("novel_field", Json.Bool true) ])
  with
  | Ok req -> check int "id" 1 req.Proto.r_id
  | Error msg -> Alcotest.failf "rejected unknown field: %s" msg

(* ------------------------------------------------------------------ *)
(* Incremental decoding                                                *)
(* ------------------------------------------------------------------ *)

let test_decoder_byte_by_byte () =
  let msgs =
    [ Json.Obj [ ("id", Json.Int 1) ]; Json.String "x"; Json.Int 42 ]
  in
  let wire = Bytes.concat Bytes.empty (List.map Proto.encode_frame msgs) in
  let d = Proto.decoder () in
  let out = ref [] in
  Bytes.iteri
    (fun i _ ->
      Proto.feed d wire i 1;
      let rec drain () =
        match Proto.next d with
        | Some (Proto.Frame j) ->
            out := j :: !out;
            drain ()
        | Some _ -> Alcotest.fail "spurious decode failure"
        | None -> ()
      in
      drain ())
    wire;
  check int "all frames decoded" (List.length msgs) (List.length !out);
  List.iter2
    (fun a b -> check string "frame" (Json.to_string a) (Json.to_string b))
    msgs (List.rev !out)

let test_decoder_garbage_keeps_stream () =
  let d = Proto.decoder () in
  let bad = Bytes.of_string "not json" in
  let frame = Bytes.create (4 + Bytes.length bad) in
  Bytes.set_int32_be frame 0 (Int32.of_int (Bytes.length bad));
  Bytes.blit bad 0 frame 4 (Bytes.length bad);
  Proto.feed d frame 0 (Bytes.length frame);
  (match Proto.next d with
  | Some (Proto.Garbage _) -> ()
  | _ -> Alcotest.fail "unparseable payload should be Garbage");
  (* The stream survives: the next well-formed frame decodes. *)
  let good = Proto.encode_frame (Json.Int 7) in
  Proto.feed d good 0 (Bytes.length good);
  match Proto.next d with
  | Some (Proto.Frame (Json.Int 7)) -> ()
  | _ -> Alcotest.fail "stream should survive a garbage payload"

(* Bytes allocated by [f], per byte of [wire]. *)
let allocated_per_byte wire f =
  let before = Gc.allocated_bytes () in
  f ();
  (Gc.allocated_bytes () -. before) /. float_of_int (Bytes.length wire)

(* Every frame [d] holds, pushed onto [out] as [Proto.next] yields
   them. *)
let rec drain_frames d out =
  match Proto.next d with
  | Some (Proto.Frame j) ->
      out := j :: !out;
      drain_frames d out
  | Some _ -> Alcotest.fail "spurious decode failure"
  | None -> ()

(* A peer that trickles a 65 kB frame one byte per write, and one that
   pipelines 16,000 small frames in one: either way the decoder copies
   each byte a bounded number of times. A decoder that rebuilds its
   pending bytes per feed or per frame allocates thousands of bytes
   per byte fed here. *)
let test_decoder_cost_per_byte () =
  let big = Json.String (String.make 65_560 'x') in
  let wire = Proto.encode_frame big in
  let d = Proto.decoder () and out = ref [] in
  let per_byte =
    allocated_per_byte wire (fun () ->
        for i = 0 to Bytes.length wire - 1 do
          Proto.feed d wire i 1;
          drain_frames d out
        done)
  in
  if per_byte >= 100. then
    Alcotest.failf "byte-at-a-time decoding: %.0f bytes allocated a byte fed"
      per_byte;
  check (Alcotest.list string) "the trickled frame"
    [ Json.to_string big ] (List.map Json.to_string !out);
  let msgs =
    List.init 16_000 (fun i ->
        Proto.request_to_json (Proto.request ~id:(10_000 + i) Proto.Ping))
  in
  let wire = Bytes.concat Bytes.empty (List.map Proto.encode_frame msgs) in
  let d = Proto.decoder () and out = ref [] in
  let per_byte =
    allocated_per_byte wire (fun () ->
        Proto.feed d wire 0 (Bytes.length wire);
        drain_frames d out)
  in
  if per_byte >= 100. then
    Alcotest.failf "pipelined decoding: %.0f bytes allocated a byte fed"
      per_byte;
  check (Alcotest.list string) "pipelined frames in order"
    (List.map Json.to_string msgs)
    (List.rev_map Json.to_string !out)

let test_decoder_oversized_is_sticky_corrupt () =
  let d = Proto.decoder ~max_frame:64 () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 1000l;
  Proto.feed d b 0 4;
  (match Proto.next d with
  | Some (Proto.Corrupt _) -> ()
  | _ -> Alcotest.fail "oversized length prefix should be Corrupt");
  (* Sticky: framing is lost for good, later feeds cannot resync. *)
  let good = Proto.encode_frame (Json.Int 7) in
  Proto.feed d good 0 (Bytes.length good);
  match Proto.next d with
  | Some (Proto.Corrupt _) -> ()
  | _ -> Alcotest.fail "Corrupt must be sticky"

(* ------------------------------------------------------------------ *)
(* The JSON depth bound                                                *)
(* ------------------------------------------------------------------ *)

let nested depth = String.make depth '[' ^ "1" ^ String.make depth ']'

let test_json_depth_bound () =
  (* Within the bound: parses. *)
  (match Json.of_string (nested 100) with
  | Json.List _ -> ()
  | _ -> Alcotest.fail "nested list should parse");
  (* A hostile frame nested far past the bound must raise a clean
     parse error, not overflow the stack (the pre-fix behaviour killed
     the whole daemon). *)
  (match Json.of_string (nested (Json.default_max_depth + 10)) with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "hostile nesting should be a Parse_error");
  (* And the bound is adjustable for callers that want it tighter. *)
  match Json.of_string ~max_depth:8 (nested 20) with
  | exception Json.Parse_error _ -> ()
  | _ -> Alcotest.fail "explicit max_depth should bind"

(* ------------------------------------------------------------------ *)
(* The generic memo table                                              *)
(* ------------------------------------------------------------------ *)

(* Two domains look up 3,000 keys each, 2,000 of them shared, in
   opposite orders, through a hash that puts about thirty keys in a
   bucket. Whatever the interleaving, every value is the pure function
   of its key, and the table stores each distinct key once. *)
let test_memo_two_domains () =
  let distinct () = (Memo.run_stats ()).Memo.distinct in
  let stored_before = distinct () in
  let m = Memo.create ~hash:(fun k -> k mod 97) ~equal:Int.equal () in
  let f k = (k * k) + 1 in
  let worker keys () =
    Array.for_all (fun k -> Memo.find_or_compute m k (fun () -> f k) = f k) keys
  in
  let other = Domain.spawn (worker (Array.init 3_000 (fun i -> 3_999 - i))) in
  let mine = worker (Array.init 3_000 Fun.id) () in
  check bool "values are the function of their keys" true
    (mine && Domain.join other);
  check int "memo.distinct = distinct keys" 4_000 (distinct () - stored_before)

(* ------------------------------------------------------------------ *)
(* The daemon, end to end                                              *)
(* ------------------------------------------------------------------ *)

let socket_counter = ref 0

(* An in-process daemon on a private socket: the server loop runs on a
   posix thread with an executor of [jobs] domains (by default the
   pool's width, as [locald serve] sizes it; each request runs at
   width one), the test body plays client, and the finaliser drains
   and joins so every test ends with the loop's stats in hand.
   [handlers] replaces the service's request semantics. *)
let with_server ?max_inflight ?max_frame ?max_engines
    ?(jobs = Pool.default_jobs ()) ?handlers f =
  incr socket_counter;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "locald-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)
  in
  let drain = Atomic.make false in
  let handlers =
    match handlers with
    | Some h -> h
    | None -> Service.handlers (Service.create ?max_engines ())
  in
  let listener = Serve.listener_unix path in
  let stats = ref None in
  let th =
    Thread.create
      (fun () ->
        stats :=
          Some
            (Serve.run ?max_inflight ?max_frame ~drain ~jobs
               ~listeners:[ listener ] ~handlers ()))
      ()
  in
  let finish () =
    Atomic.set drain true;
    Thread.join th;
    (try Sys.remove path with Sys_error _ -> ())
  in
  let result = Fun.protect ~finally:finish (fun () -> f path drain) in
  match !stats with
  | Some s -> (result, s)
  | None -> Alcotest.fail "server loop died without returning stats"

let rpc_json fd json =
  Proto.write_frame fd json;
  match Proto.read_frame fd with
  | Some json -> json
  | None -> Alcotest.fail "connection closed without a response"

let rpc fd req = rpc_json fd (Proto.request_to_json req)

let result_digest json =
  let v = Proto.response_view json in
  if not v.Proto.v_ok then
    Alcotest.failf "expected ok response, got %s" (Json.to_string json);
  match v.Proto.v_result with
  | Some (Json.Obj kvs) -> (
      match List.assoc_opt "digest" kvs with
      | Some (Json.String d) -> d
      | _ -> Alcotest.fail "response carries no digest")
  | _ -> Alcotest.fail "response carries no result object"

let metrics_counter fd name =
  let json = rpc fd (Proto.request ~id:999 Proto.Metrics) in
  let v = Proto.response_view json in
  match v.Proto.v_result with
  | Some result -> (
      match
        Option.bind
          (match result with
          | Json.Obj kvs -> List.assoc_opt "counters" kvs
          | _ -> None)
          (function
            | Json.Obj kvs -> List.assoc_opt name kvs
            | _ -> None)
      with
      | Some (Json.Int n) -> n
      | _ -> Alcotest.failf "no %S counter in metrics" name)
  | None -> Alcotest.fail "metrics response carries no result"

let oneshot_digest ?backend name =
  let w = Option.get (Sweeps.find name) in
  Sweeps.digest (w.Sweeps.w_unsharded ?backend ())

let test_decide_matches_oneshot_and_memoises () =
  let (d1, d2, hits1, hits2), _stats =
    with_server (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let req = Proto.request ~workload:"exhaustive-decider" ~id:5
                Proto.Decide in
            let r1 = rpc fd req in
            let hits1 = metrics_counter fd "memo.hits" in
            let r2 = rpc fd req in
            let hits2 = metrics_counter fd "memo.hits" in
            (* The repeated request is byte-identical, not merely
               digest-equal: responses carry no timestamps. *)
            check string "responses byte-identical" (Json.to_string r1)
              (Json.to_string r2);
            (result_digest r1, result_digest r2, hits1, hits2)))
  in
  check string "daemon digest = one-shot digest"
    (oneshot_digest "exhaustive-decider") d1;
  check string "repeat digest" d1 d2;
  (* The warm engine answers the second request from its memo table. *)
  if hits2 <= hits1 then
    Alcotest.failf "no cross-request memo hits (%d -> %d)" hits1 hits2

let test_concurrent_clients_distinct_configs () =
  let async_backend seed =
    Backend.Async { Locald_local.Async_runner.sched_seed = seed; fifo = false }
  in
  let (sync_ds, async_ds), stats =
    with_server (fun path _drain ->
        let a = Proto.connect_unix path in
        let b = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () ->
            Unix.close a;
            Unix.close b)
          (fun () ->
            let sync_req id =
              Proto.request ~workload:"exhaustive-decider" ~id Proto.Decide
            in
            let async_req id =
              Proto.request ~workload:"exhaustive-decider"
                ~config:
                  {
                    Proto.no_config with
                    Proto.c_backend = Some "async";
                    c_sched_seed = Some 3;
                  }
                ~id Proto.Decide
            in
            (* Interleave: client a speaks sync, client b async-seed-3,
               strictly alternating on the same workload — the server
               must thread each request's config without leaking either
               into the other (or into the process globals). *)
            let sync_ds = ref [] and async_ds = ref [] in
            for i = 1 to 3 do
              sync_ds := result_digest (rpc a (sync_req i)) :: !sync_ds;
              async_ds := result_digest (rpc b (async_req (100 + i))) :: !async_ds
            done;
            (!sync_ds, !async_ds)))
  in
  let sync_expect = oneshot_digest "exhaustive-decider" in
  let async_expect =
    oneshot_digest ~backend:(async_backend 3) "exhaustive-decider"
  in
  List.iter (fun d -> check string "sync client" sync_expect d) sync_ds;
  List.iter (fun d -> check string "async client" async_expect d) async_ds;
  check int "all requests served" 6 stats.Serve.served;
  check int "two connections" 2 stats.Serve.connections

let test_per_request_config_rejected_not_coerced () =
  let (), _stats =
    with_server (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let error_text req msg =
              let v = Proto.response_view (rpc fd req) in
              if v.Proto.v_ok then Alcotest.failf "accepted %s" msg;
              match v.Proto.v_error with
              | Some text -> text
              | None -> Alcotest.failf "no error text for %s" msg
            in
            let expect_error req msg = ignore (error_text req msg : string) in
            expect_error
              (Proto.request
                 ~config:{ Proto.no_config with Proto.c_backend = Some "asink" }
                 ~id:1 Proto.Decide)
              "an unknown backend name";
            expect_error
              (Proto.request ~workload:"no-such-sweep" ~id:3 Proto.Decide)
              "an unknown workload";
            expect_error
              (Proto.request ~workload:"exhaustive-decider" ~lo:0 ~hi:999999999
                 ~id:4 Proto.Decide)
              "an out-of-range hi";
            expect_error
              (Proto.request
                 ~config:
                   {
                     Proto.no_config with
                     Proto.c_backend = Some "sync";
                     c_sched_seed = Some 3;
                   }
                 ~id:5 Proto.Decide)
              "a sync backend with an async seed"))
  in
  ()

(* The [memo] and [jobs] fields of older clients are unknown fields
   now: a request carrying them, even with values the daemon once
   rejected, is answered as the same request without them, by the
   same engine. *)
let test_retired_fields_ignored () =
  let (plain, retired, builds_before, builds_after), _stats =
    with_server (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let req id =
              Proto.request_to_json
                (Proto.request ~workload:"exhaustive-decider-a1" ~id
                   Proto.Decide)
            in
            let with_retired = function
              | Json.Obj kvs ->
                  Json.Obj
                    (kvs
                    @ [ ("memo", Json.String "off"); ("jobs", Json.Int 0) ])
              | _ -> Alcotest.fail "a request is a JSON object"
            in
            let plain = result_digest (rpc_json fd (req 1)) in
            let builds_before = metrics_counter fd "serve.engine_builds" in
            let retired = result_digest (rpc_json fd (with_retired (req 2))) in
            let builds_after = metrics_counter fd "serve.engine_builds" in
            (plain, retired, builds_before, builds_after)))
  in
  check string "same digest with the retired fields" plain retired;
  check int "no extra engine build" builds_before builds_after

(* The CLI, run as a child process: its exit status and stderr. *)
let run_cli args =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/locald.exe"
  in
  let err = Filename.temp_file "locald_cli" ".err" in
  let err_fd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin null err_fd
  in
  Unix.close err_fd;
  Unix.close null;
  let _, status = Unix.waitpid [] pid in
  let msg = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, String.trim msg)

(* One reader for the backend options: on a contradiction the daemon's
   error response and the CLI's usage error carry the message of
   [Backend.resolve]. The daemon reads names in any case, as the CLI
   always has. *)
let test_cli_and_serve_share_readers () =
  let cases =
    [
      ([ "--backend"; "sync"; "--sched-seed"; "3" ], Some "sync", Some 3, None);
      ([ "--backend"; "sync"; "--fifo" ], Some "sync", None, Some true);
      ([ "--backend"; "asink" ], Some "asink", None, None);
    ]
  in
  let request c_backend c_sched_seed c_fifo =
    let config = { Proto.c_backend; c_sched_seed; c_fifo } in
    Proto.request ~workload:"exhaustive-decider" ~lo:0 ~hi:64 ~config ~id:1
      Proto.Decide
  in
  let (errors, mixed_case), _stats =
    with_server (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let view req = Proto.response_view (rpc fd req) in
            ( List.map
                (fun (_, b, s, f) -> (view (request b s f)).Proto.v_error)
                cases,
              view (request (Some " Async ") None None) )))
  in
  check bool "serve reads names in any case" true mixed_case.Proto.v_ok;
  List.iter2
    (fun (flags, backend, sched_seed, fifo) served ->
      let expected =
        match Backend.resolve backend ~sched_seed ~fifo with
        | Error msg -> msg
        | Ok _ -> Alcotest.fail "the resolver accepted a contradiction"
      in
      check (Alcotest.option string) "serve replies with the resolver's message"
        (Some expected) served;
      let status, stderr = run_cli ("table1" :: "--quick" :: flags) in
      check bool "CLI exits 124" true (status = Unix.WEXITED Shard.Exit.usage);
      check string "CLI prints the resolver's message" ("locald: " ^ expected)
        stderr)
    cases errors;
  (* The decide cache has no off switch and the client no pool: a
     [--memo] flag, with any mode, and the client's [--jobs] are usage
     errors. On [serve], [--memo 5] must not pass for the prefix of
     [--memo-capacity]; its socket path cannot be bound, so a CLI that
     accepted it would fail at once instead of serving. *)
  List.iter
    (fun args ->
      let status, _ = run_cli args in
      check bool
        (String.concat " " args ^ " exits 124")
        true
        (status = Unix.WEXITED Shard.Exit.usage))
    ([ [ "serve"; "--memo"; "exact" ];
       [ "serve"; "--socket"; "/nonexistent/locald.sock"; "--memo"; "5" ];
       [ "client"; "decide"; "--memo"; "off" ];
       [ "client"; "ping"; "--jobs"; "2" ] ]
    @ List.map
        (fun mode -> [ "table1"; "--quick"; "--memo"; mode ])
        [ "off"; "exact"; "order"; "order-type" ])

let test_busy_backpressure () =
  let replies, stats =
    with_server ~max_inflight:1 (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            (* Four pings in one write: the read sweep decodes all four
               before anything executes, so with max_inflight = 1 the
               first occupies the queue and the rest bounce busy —
               deterministically, no timing involved. *)
            let frames =
              List.map
                (fun id ->
                  Proto.encode_frame
                    (Proto.request_to_json (Proto.request ~id Proto.Ping)))
                [ 1; 2; 3; 4 ]
            in
            let wire = Bytes.concat Bytes.empty frames in
            let n = Unix.write fd wire 0 (Bytes.length wire) in
            check int "single write" (Bytes.length wire) n;
            List.init 4 (fun _ ->
                match Proto.read_frame fd with
                | Some json -> Proto.response_view json
                | None -> Alcotest.fail "connection closed early")))
  in
  let busy, ok = List.partition (fun v -> v.Proto.v_busy) replies in
  check int "three bounced busy" 3 (List.length busy);
  check int "one served" 1 (List.length ok);
  check bool "served reply is the first id" true
    (List.for_all (fun v -> v.Proto.v_id = Some 1) ok);
  check int "stats.busy" 3 stats.Serve.busy;
  check int "stats.served" 1 stats.Serve.served

let test_malformed_frame_survival () =
  let (), stats =
    with_server (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            (* A well-framed unparseable payload: error reply, and the
               connection keeps working. *)
            let bad = "{{{{" in
            let frame = Bytes.create (4 + String.length bad) in
            Bytes.set_int32_be frame 0 (Int32.of_int (String.length bad));
            Bytes.blit_string bad 0 frame 4 (String.length bad);
            ignore (Unix.write fd frame 0 (Bytes.length frame));
            (match Proto.read_frame fd with
            | Some json ->
                let v = Proto.response_view json in
                check bool "error reply" false v.Proto.v_ok
            | None -> Alcotest.fail "daemon dropped the connection");
            (* The daemon did not die and the stream still works. *)
            let v = Proto.response_view (rpc fd (Proto.request ~id:9 Proto.Ping)) in
            check bool "follow-up ok" true v.Proto.v_ok))
  in
  check int "one malformed frame counted" 1 stats.Serve.malformed

let test_corrupt_framing_closes_connection () =
  let (), stats =
    with_server ~max_frame:1024 (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let b = Bytes.create 4 in
            Bytes.set_int32_be b 0 100000l;
            ignore (Unix.write fd b 0 4);
            (match Proto.read_frame fd with
            | Some json ->
                let v = Proto.response_view json in
                check bool "error reply" false v.Proto.v_ok
            | None -> Alcotest.fail "expected an error reply before close");
            (* Framing is lost: the daemon closes this connection. *)
            match Proto.read_frame fd with
            | None -> ()
            | Some _ -> Alcotest.fail "corrupt connection should close"))
  in
  check int "one corrupt frame counted" 1 stats.Serve.malformed

let test_drain_delivers_inflight () =
  let views, stats =
    with_server (fun path drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            (* Make sure the connection is accepted before the drain
               flips — a connection still in the listen backlog when
               the listeners close is (correctly) lost, and that is
               not what this test is about. *)
            let v = Proto.response_view (rpc fd (Proto.request ~id:0 Proto.Ping)) in
            check bool "warm-up ping" true v.Proto.v_ok;
            (* Two requests are on the wire when the drain flag flips —
               the graceful-shutdown contract says both answers still
               arrive, then EOF. This is what the PR-6 signal handlers
               (flush and re-deliver) got wrong: they killed the
               process with these responses unsent. *)
            let frames =
              List.map
                (fun id ->
                  Proto.encode_frame
                    (Proto.request_to_json (Proto.request ~id Proto.Ping)))
                [ 1; 2 ]
            in
            let wire = Bytes.concat Bytes.empty frames in
            ignore (Unix.write fd wire 0 (Bytes.length wire));
            Atomic.set drain true;
            let r1 = Proto.read_frame fd in
            let r2 = Proto.read_frame fd in
            let eof = Proto.read_frame fd in
            check bool "EOF after the drain" true (eof = None);
            List.filter_map (Option.map Proto.response_view) [ r1; r2 ]))
  in
  check int "both in-flight responses delivered" 2 (List.length views);
  List.iter (fun v -> check bool "ok" true v.Proto.v_ok) views;
  check int "ping plus both served" 3 stats.Serve.served

let test_shutdown_request_drains () =
  let (), stats =
    with_server (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let json = rpc fd (Proto.request ~id:1 Proto.Shutdown) in
            let v = Proto.response_view json in
            check bool "shutdown acknowledged" true v.Proto.v_ok;
            (* The daemon answers, drains and closes — without the test
               touching the drain flag. *)
            match Proto.read_frame fd with
            | None -> ()
            | Some _ -> Alcotest.fail "expected EOF after shutdown"))
  in
  check int "shutdown served" 1 stats.Serve.served

(* A metrics reply lists every registered counter, 0 when the run has
   not touched it: in a fresh telemetry run, before any decide, the
   daemon reports no engine eviction instead of omitting the counter. *)
let test_metrics_lists_untouched_counters () =
  Telemetry.new_run ();
  let evictions, _stats =
    with_server (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () -> metrics_counter fd "serve.engine_evictions"))
  in
  check int "untouched counter is 0" 0 evictions

let test_engine_cache_evicts_lru () =
  let (builds, evictions), _stats =
    with_server ~max_engines:2 (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let builds0 = metrics_counter fd "serve.engine_builds" in
            let evict0 = metrics_counter fd "serve.engine_evictions" in
            let decide seed =
              let config =
                match seed with
                | None -> Proto.no_config
                | Some s ->
                    {
                      Proto.no_config with
                      Proto.c_backend = Some "async";
                      c_sched_seed = Some s;
                    }
              in
              ignore
                (result_digest
                   (rpc fd
                      (Proto.request ~workload:"exhaustive-decider" ~config
                         ~id:1 Proto.Decide)))
            in
            (* Three distinct configs through a 2-engine cache, then
               the first again: four builds, at least one eviction. *)
            decide None;
            decide (Some 1);
            decide (Some 2);
            decide None;
            ( metrics_counter fd "serve.engine_builds" - builds0,
              metrics_counter fd "serve.engine_evictions" - evict0 )))
  in
  check int "four engine builds" 4 builds;
  check bool "evictions happened" true (evictions >= 1)

(* Request semantics for the executor tests: every request answers ok
   with its own id, unless [special] handles it. *)
let injected special =
  let on_request json =
    match special json with
    | Some reply -> reply
    | None ->
        let id = Option.value (Proto.request_id json) ~default:0 in
        Serve.Reply (Proto.response ~id ~op:Proto.Ping (Json.Obj []))
  in
  { (Service.handlers (Service.create ())) with Serve.on_request }

(* A raising handler must cost one request, not the daemon: the
   exception becomes an error reply with the frame's id, and the
   connection goes on being served — at width 1, and at width 2, where
   either domain may run the request. *)
let test_handler_exception_answers_error () =
  List.iter
    (fun jobs ->
      let handlers =
        injected (fun json ->
            if Proto.request_id json = Some 2 then failwith "injected fault"
            else None)
      in
      let views, stats =
        with_server ~jobs ~handlers (fun path _drain ->
            let fd = Proto.connect_unix path in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () ->
                List.map
                  (fun id ->
                    Proto.response_view (rpc fd (Proto.request ~id Proto.Ping)))
                  [ 1; 2; 3 ]))
      in
      let ids = List.map (fun v -> v.Proto.v_id) views in
      check (Alcotest.list (Alcotest.option int)) "ids" [ Some 1; Some 2; Some 3 ]
        ids;
      check (Alcotest.list bool) "only the raising request fails"
        [ true; false; true ]
        (List.map (fun v -> v.Proto.v_ok) views);
      (match (List.nth views 1).Proto.v_error with
      | Some msg when Str.string_match (Str.regexp ".*injected fault") msg 0 ->
          ()
      | e ->
          Alcotest.failf "error reply should name the exception, got %s"
            (Option.value e ~default:"none"));
      check int "served counts the failed request" 3 stats.Serve.served)
    [ 1; 2 ]

(* Overlap and per-connection order without a timing assumption: two
   requests pipelined in one write on one connection at width 2. The
   first waits (at most about 10 s) on a latch only the second opens,
   so the first can finish in time only if both ran at once; its reply
   must still arrive first. *)
let test_overlap_keeps_connection_order () =
  let opened = Atomic.make false in
  let handlers =
    injected (fun json ->
        match Proto.request_id json with
        | Some 1 ->
            let deadline = Timing.now () +. 10. in
            while (not (Atomic.get opened)) && Timing.now () < deadline do
              Unix.sleepf 0.001
            done;
            Some
              (Serve.Reply
                 (Proto.response ~id:1 ~op:Proto.Ping
                    (Json.Obj
                       [ ("timed_out", Json.Bool (not (Atomic.get opened))) ])))
        | _ ->
            Atomic.set opened true;
            None)
  in
  let replies, stats =
    with_server ~jobs:2 ~handlers (fun path _drain ->
        let fd = Proto.connect_unix path in
        Fun.protect
          ~finally:(fun () -> Unix.close fd)
          (fun () ->
            let wire =
              Bytes.concat Bytes.empty
                (List.map
                   (fun id ->
                     Proto.encode_frame
                       (Proto.request_to_json (Proto.request ~id Proto.Ping)))
                   [ 1; 2 ])
            in
            check int "single write" (Bytes.length wire)
              (Unix.write fd wire 0 (Bytes.length wire));
            List.init 2 (fun _ ->
                match Proto.read_frame fd with
                | Some json -> Proto.response_view json
                | None -> Alcotest.fail "connection closed early")))
  in
  check (Alcotest.list (Alcotest.option int)) "replies in request order"
    [ Some 1; Some 2 ]
    (List.map (fun v -> v.Proto.v_id) replies);
  List.iter (fun v -> check bool "ok" true v.Proto.v_ok) replies;
  (match (List.hd replies).Proto.v_result with
  | Some result ->
      check (Alcotest.option bool) "the first request was not left waiting"
        (Some false)
        (match Json.member "timed_out" result with
        | Some (Json.Bool b) -> Some b
        | _ -> None)
  | None -> Alcotest.fail "the first reply carries no result");
  check int "both served" 2 stats.Serve.served

(* First-time decides of three workloads at once on a fresh [locald
   serve --jobs 2]: each builds its engine while the others may be
   building theirs, and two of them share H+'s lazy instance. All three
   must answer with their one-shot digests. Whether two domains ever
   force one lazy at the same instant is timing-dependent, so this
   guards the locking against regressions rather than reproducing the
   race on demand. *)
let test_fresh_daemon_first_decides_at_once () =
  let cli =
    Filename.concat (Filename.dirname Sys.executable_name) "../bin/locald.exe"
  in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "locald-test-%d-fresh.sock" (Unix.getpid ()))
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "--jobs"; "2" |]
      Unix.stdin null null
  in
  Unix.close null;
  let workloads =
    [ "exhaustive-decider"; "async-exhaustive"; "exhaustive-decider-a1" ]
  in
  let status = ref None in
  let finish () =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    status := Some (snd (Unix.waitpid [] pid));
    try Sys.remove sock with Sys_error _ -> ()
  in
  let digests =
    Fun.protect ~finally:finish (fun () ->
        let deadline = Timing.now () +. 30. in
        let rec connect () =
          match Proto.connect_unix sock with
          | fd -> fd
          | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
            when Timing.now () < deadline ->
              Unix.sleepf 0.01;
              connect ()
        in
        let fds = List.map (fun _ -> connect ()) workloads in
        Fun.protect
          ~finally:(fun () -> List.iter Unix.close fds)
          (fun () ->
            List.iteri
              (fun i (fd, workload) ->
                Proto.write_frame fd
                  (Proto.request_to_json
                     (Proto.request ~workload ~id:i Proto.Decide)))
              (List.combine fds workloads);
            List.map
              (fun fd ->
                match Proto.read_frame fd with
                | Some json -> result_digest json
                | None -> Alcotest.fail "daemon closed a connection")
              fds))
  in
  check bool "the daemon drained and exited 0" true
    (!status = Some (Unix.WEXITED 0));
  List.iter2
    (fun workload digest ->
      check string (workload ^ " = one-shot") (oneshot_digest workload) digest)
    workloads digests

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          QCheck_alcotest.to_alcotest request_roundtrips;
          Alcotest.test_case "ill-typed requests rejected" `Quick
            test_request_rejects_ill_typed;
          Alcotest.test_case "decoder survives byte-by-byte feeds" `Quick
            test_decoder_byte_by_byte;
          Alcotest.test_case "garbage payload keeps the stream" `Quick
            test_decoder_garbage_keeps_stream;
          Alcotest.test_case "oversized frame is sticky corrupt" `Quick
            test_decoder_oversized_is_sticky_corrupt;
          Alcotest.test_case "decoding cost is linear in bytes fed" `Quick
            test_decoder_cost_per_byte;
          Alcotest.test_case "JSON nesting depth is bounded" `Quick
            test_json_depth_bound;
        ] );
      ( "memo",
        [
          Alcotest.test_case "find_or_compute under two domains" `Quick
            test_memo_two_domains;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "decide matches one-shot, memoises" `Slow
            test_decide_matches_oneshot_and_memoises;
          Alcotest.test_case "concurrent clients, distinct configs" `Slow
            test_concurrent_clients_distinct_configs;
          Alcotest.test_case "bad per-request config rejected" `Quick
            test_per_request_config_rejected_not_coerced;
          Alcotest.test_case "CLI and serve share the config readers" `Quick
            test_cli_and_serve_share_readers;
          Alcotest.test_case "retired memo and jobs fields ignored" `Quick
            test_retired_fields_ignored;
          Alcotest.test_case "inflight bound bounces busy" `Quick
            test_busy_backpressure;
          Alcotest.test_case "malformed frame survival" `Quick
            test_malformed_frame_survival;
          Alcotest.test_case "corrupt framing closes connection" `Quick
            test_corrupt_framing_closes_connection;
          Alcotest.test_case "drain delivers in-flight responses" `Quick
            test_drain_delivers_inflight;
          Alcotest.test_case "shutdown request drains" `Quick
            test_shutdown_request_drains;
          Alcotest.test_case "metrics lists untouched counters" `Quick
            test_metrics_lists_untouched_counters;
          Alcotest.test_case "engine cache evicts LRU" `Slow
            test_engine_cache_evicts_lru;
          Alcotest.test_case "handler exception answers an error" `Quick
            test_handler_exception_answers_error;
          Alcotest.test_case "pipelined requests overlap, replies in order"
            `Quick test_overlap_keeps_connection_order;
          Alcotest.test_case "fresh daemon, first decides at once" `Slow
            test_fresh_daemon_first_decides_at_once;
        ] );
    ]

(* Request semantics of the locald decision service: the bridge from
   [Proto] messages to the Sweeps workload registry, the certify
   registry and the telemetry surface.

   The centrepiece is the engine cache. An {e engine} is one
   [Sweeps.w_eval] closure — an instance's prepared views plus its
   read-adaptive decide cache — keyed by (workload, backend config).
   Engines persist across requests, so a repeated workload
   hits the warm cache: the cross-request cache the long-lived daemon
   exists for. A rebuilt engine's cache fills fast, because it keys a
   decide by the id slots the decide reads: the exhaustive-decider
   engine misses 64 times over its whole 40,320-rank space. The engine
   cache is LRU-bounded ([max_engines]) and every engine's decide
   cache is bounded in leaves ([memo_capacity] through
   [Runner.prepare]), so a daemon fed a stream of distinct configs
   stays at a bounded footprint. Eviction at either level is
   digest-transparent — a rebuilt engine recomputes what the dropped
   one knew.

   Per-request configuration is {e threaded}, never ambient: the
   daemon's startup backend is given once at [create], and a request's
   backend overrides it for that request only by flowing through
   [w_eval]'s explicit parameters. A request field the daemon does not
   read — such as the [memo] and [jobs] of older clients — is ignored,
   as [Proto] ignores every unknown field.

   Requests run concurrently on the daemon's executor domains, so the
   engine table and its LRU clock sit under one mutex. The same lock
   covers every forcing of a workload's lazy instance (an engine build
   or a geometry read): forcing one lazy from two domains at once
   raises [Lazy.Undefined]. Engines themselves are shared without a
   lock; their closures are pure and their decide caches concurrent. *)

open Locald_runtime
module Backend = Locald_local.Backend
module Async_runner = Locald_local.Async_runner
module Json = Telemetry.Json

let c_engine_builds = Telemetry.Counter.make "serve.engine_builds"
let c_engine_evictions = Telemetry.Counter.make "serve.engine_evictions"
let g_engines = Telemetry.Gauge.make "serve.engines"

type engine = {
  e_eval : lo:int -> hi:int -> Shard.chunk_result;
  mutable e_used : int;  (* LRU stamp: the service clock at last use *)
}

type t = {
  sv_backend : Backend.t;  (* startup default for config-less requests *)
  sv_memo_capacity : int;
  sv_max_engines : int;
  sv_lock : Mutex.t;  (* the table, the tick, and workload lazies *)
  sv_engines : (string, engine) Hashtbl.t;
  mutable sv_tick : int;
}

let default_max_engines = 8
let default_memo_capacity = 1 lsl 16

let create ?(backend = Backend.Sync) ?(max_engines = default_max_engines)
    ?(memo_capacity = default_memo_capacity) () =
  {
    sv_backend = backend;
    sv_memo_capacity = memo_capacity;
    sv_max_engines = max 1 max_engines;
    sv_lock = Mutex.create ();
    sv_engines = Hashtbl.create 16;
    sv_tick = 0;
  }

(* ------------------------------------------------------------------ *)
(* Per-request configuration                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

let resolve_backend t (c : Proto.config) =
  Backend.resolve c.c_backend ~sched_seed:c.c_sched_seed ~fifo:c.c_fifo
  |> Result.map (Option.value ~default:t.sv_backend)

let backend_key = function
  | Backend.Sync -> "sync"
  | Backend.Async { Async_runner.sched_seed; fifo } ->
      Printf.sprintf "async:%d:%b" sched_seed fifo

(* ------------------------------------------------------------------ *)
(* The engine cache                                                    *)
(* ------------------------------------------------------------------ *)

let engine_for t (w : Sweeps.workload) backend =
  let key = w.Sweeps.w_name ^ "#" ^ backend_key backend in
  Mutex.protect t.sv_lock @@ fun () ->
  t.sv_tick <- t.sv_tick + 1;
  match Hashtbl.find_opt t.sv_engines key with
  | Some e ->
      e.e_used <- t.sv_tick;
      e
  | None ->
      if Hashtbl.length t.sv_engines >= t.sv_max_engines then begin
        (* Evict the least-recently-used engine. The fold order over
           the table is irrelevant: the minimum stamp is order-free. *)
        let victim =
          Hashtbl.fold
            (fun k e acc ->
              match acc with
              | Some (_, e') when e'.e_used <= e.e_used -> acc
              | _ -> Some (k, e))
            t.sv_engines None
        in
        match victim with
        | Some (k, _) ->
            Hashtbl.remove t.sv_engines k;
            Telemetry.Counter.incr c_engine_evictions
        | None -> ()
      end;
      let e =
        {
          e_eval =
            w.Sweeps.w_eval ~backend ~memo_capacity:t.sv_memo_capacity ();
          e_used = t.sv_tick;
        }
      in
      Hashtbl.replace t.sv_engines key e;
      Telemetry.Counter.incr c_engine_builds;
      Telemetry.Gauge.set g_engines (float_of_int (Hashtbl.length t.sv_engines));
      e

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

let handle_decide t (req : Proto.request) =
  let name = Option.value req.Proto.r_workload ~default:Sweeps.default_name in
  let* w =
    match Sweeps.find name with
    | Some w -> Ok w
    | None ->
        Error
          (Printf.sprintf "unknown workload %S (known: %s)" name
             (String.concat ", " Sweeps.names))
  in
  let* backend = resolve_backend t req.Proto.r_config in
  let geom = Mutex.protect t.sv_lock w.Sweeps.w_geometry in
  let total = geom.Sweeps.g_total in
  let lo = Option.value req.Proto.r_lo ~default:0 in
  let hi = Option.value req.Proto.r_hi ~default:total in
  let* () =
    if lo < 0 || hi < lo || hi > total then
      Error (Printf.sprintf "range [%d,%d) outside [0,%d]" lo hi total)
    else Ok ()
  in
  let engine = engine_for t w backend in
  let r = engine.e_eval ~lo ~hi in
  (* No wall times, no cache statistics in the result: responses must
     be byte-comparable across runs and against one-shot CLI digests.
     Stats live behind the metrics op. *)
  Ok
    (Json.Obj
       [
         ("workload", Json.String w.Sweeps.w_name);
         ("n", Json.Int geom.Sweeps.g_n);
         ("lo", Json.Int lo);
         ("hi", Json.Int hi);
         ("assignments", Json.Int (hi - lo));
         ("correct", Json.Int r.Shard.r_correct);
         ("wrong", Json.Int r.Shard.r_wrong);
         ( "first_failure",
           match r.Shard.r_fail with
           | Some rank -> Json.Int rank
           | None -> Json.Null );
         ( "digest",
           Json.String
             (Shard.result_digest ~correct:r.Shard.r_correct
                ~wrong:r.Shard.r_wrong ~assignments:(hi - lo)) );
       ])

let handle_certify t =
  let rows = Certify.run ~backend:t.sv_backend () in
  let row_json r =
    Json.Obj
      [
        ("name", Json.String r.Certify.c_name);
        ("cell", Json.String r.Certify.c_cell);
        ("claim", Json.String (Certify.claim_name r.Certify.c_claim));
        ( "verdict",
          Json.String
            (Locald_analysis.Analysis.verdict_name
               r.Certify.c_report.Locald_analysis.Analysis.rep_verdict) );
        ("ok", Json.Bool r.Certify.c_ok);
      ]
  in
  let summary r =
    ( r.Certify.c_name,
      Locald_analysis.Analysis.verdict_name
        r.Certify.c_report.Locald_analysis.Analysis.rep_verdict,
      r.Certify.c_ok )
  in
  Ok
    (Json.Obj
       [
         ("rows", Json.List (List.map row_json rows));
         ("all_ok", Json.Bool (Certify.all_ok rows));
         ("digest", Json.String (Shard.digest (List.map summary rows)));
       ])

(* ------------------------------------------------------------------ *)
(* The dispatcher                                                      *)
(* ------------------------------------------------------------------ *)

let handlers t =
  let on_request json =
    match Proto.request_of_json json with
    | Error msg ->
        Serve.Reply (Proto.error_response ?id:(Proto.request_id json) msg)
    | Ok req -> (
        let id = req.Proto.r_id in
        let op = req.Proto.r_op in
        let reply = function
          | Ok result -> Serve.Reply (Proto.response ~id ~op result)
          | Error msg -> Serve.Reply (Proto.error_response ~id msg)
        in
        match op with
        | Proto.Ping ->
            Serve.Reply
              (Proto.response ~id ~op (Json.Obj [ ("pong", Json.Bool true) ]))
        | Proto.Metrics -> Serve.Reply (Proto.response ~id ~op (Telemetry.metrics_json ()))
        | Proto.Shutdown ->
            Serve.Final
              (Proto.response ~id ~op
                 (Json.Obj [ ("draining", Json.Bool true) ]))
        | Proto.Decide -> reply (handle_decide t req)
        | Proto.Certify -> reply (handle_certify t))
  in
  {
    Serve.on_request;
    on_busy =
      (fun ~inflight json ->
        Proto.busy_response ?id:(Proto.request_id json) ~inflight ());
    on_malformed =
      (fun msg -> Proto.error_response ("malformed frame: " ^ msg));
  }

(* The locald benchmark: four workloads, end-to-end metrics with tracing
   off, and a separate traced run that attributes time, allocation and
   counts to the library's layers. It drives the layers only through
   their public functions, plus a [locald serve] child over Proto
   frames.

   Usage, from the root of a built checkout (perfbench/run.sh builds):
     main.exe --workload coverage|certify|serve-hot|serve-churn
              --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. Every output is
   checked: batch digests against the committed BENCH_scale pins,
   every serve response against an in-process Sweeps evaluation of the
   same workload and range. Any failure makes the exit code 1. *)

open Locald_graph
open Locald_runtime
open Locald_local
open Locald_core
open Perfbench
module Json = Telemetry.Json
module Analysis = Locald_analysis.Analysis

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit code)
    fmt

let now = Timing.now

(* ------------------------------------------------------------------ *)
(* Arguments and provenance                                            *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_probe : bool;  (* build the batch instance once, print its times *)
}

let workloads = List.map fst Catalog.workloads

let parse_args () =
  let int_of flag s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> die 2 "%s expects an integer, got %S" flag s
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest ->
        if not (List.mem w workloads) then
          die 2 "unknown workload %S (known: %s)" w (String.concat ", " workloads);
        go { a with workload = w } rest
    | "--seed" :: s :: rest -> go { a with seed = int_of "--seed" s } rest
    | "--seconds" :: s :: rest ->
        let n = int_of "--seconds" s in
        if n < 1 then die 2 "--seconds must be positive";
        go { a with seconds = float_of_int n } rest
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--setup-probe" :: rest -> go { a with setup_probe = true } rest
    | arg :: _ -> die 2 "unexpected argument %S" arg
  in
  let a =
    go { workload = ""; seed = 0; seconds = 10.; trace = false; setup_probe = false }
      (List.tl (Array.to_list Sys.argv))
  in
  if a.workload = "" then die 2 "--workload is required";
  a

(* The library reads LOCALD_* variables when it loads; a benchmark run
   under one would measure a configuration its result does not name. *)
let refuse_locald_env () =
  match
    List.filter
      (fun kv -> String.length kv > 7 && String.sub kv 0 7 = "LOCALD_")
      (Array.to_list (Unix.environment ()))
  with
  | [] -> ()
  | vars -> die 2 "refusing to run under %s" (String.concat " " vars)

let host_cores = Domain.recommended_domain_count ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The commit when the checkout is a git work tree, else a digest of
   the library and CLI sources, which identifies the build as well. *)
let commit () =
  let git_ref () =
    let head = String.trim (read_file ".git/HEAD") in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" ->
        let r = String.sub head (i + 1) (String.length head - i - 1) in
        String.trim (read_file (Filename.concat ".git" r))
    | _ -> head
  in
  match git_ref () with
  | c -> c
  | exception Sys_error _ ->
      let rec files dir =
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.concat_map (fun f ->
               let p = Filename.concat dir f in
               if Sys.is_directory p then files p
               else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli"
               then [ p ]
               else [])
      in
      let all = files "lib" @ files "bin" in
      "source-"
      ^ Digest.to_hex
          (Digest.string
             (String.concat "\000"
                (List.map (fun p -> p ^ "\000" ^ read_file p) all)))

let provenance args ~loop ~steal =
  Json.Obj
    [
      ("workload", Json.String args.workload);
      ("seed", Json.Int args.seed);
      ("seconds", Json.Float args.seconds);
      ("trace", Json.Bool args.trace);
      ("host_cores", Json.Int host_cores);
      ("jobs_requested", Json.Int host_cores);
      ("jobs_effective", Json.Int (Pool.jobs (Pool.default ())));
      ("ocaml", Json.String Sys.ocaml_version);
      ("commit", Json.String (commit ()));
      ("loop", loop);
      ("host_steal_share", Json.Float steal);
    ]

(* ------------------------------------------------------------------ *)
(* Pins and measurements shared by every workload                      *)
(* ------------------------------------------------------------------ *)

let pin file key =
  let json =
    match read_file file with
    | s -> Json.of_string s
    | exception Sys_error msg ->
        die 2 "%s — run from the root of a locald checkout" msg
  in
  match Option.bind (Json.member key json) (Json.member "result_digest") with
  | Some (Json.String d) -> d
  | _ -> die 2 "%s has no result_digest for %s" file key

(* The bench tiers' digest: Marshal + MD5 of the result summary. *)
let digest_of x = Digest.to_hex (Digest.string (Marshal.to_string x []))

(* Peak resident memory of a process, from /proc. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match read_file path with
  | exception Sys_error _ -> die 1 "cannot read %s for peak_rss_mb" path
  | status ->
      let line =
        List.find_opt
          (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
          (String.split_on_char '\n' status)
      in
      match Option.map (fun l -> Scanf.sscanf l "VmHWM: %d kB" Fun.id) line with
      | Some kb -> float_of_int kb /. 1024.
      | None -> die 1 "no VmHWM line in %s" path

(* CPU seconds (user + system, every thread) a process has used: the
   time its threads ran. On a shared host they move with the host's
   load far less than wall time does (README.md). *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The same for a child: the run time of each of its threads, from
   /proc/<pid>/task/*/schedstat, in nanoseconds. *)
let cpu_of pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  match Sys.readdir dir with
  | exception Sys_error _ -> die 1 "cannot list %s for CPU time" dir
  | tasks ->
      Array.fold_left
        (fun acc t ->
          match read_file (Printf.sprintf "%s/%s/schedstat" dir t) with
          | exception Sys_error _ -> acc (* the thread has just exited *)
          | line -> acc +. (Scanf.sscanf line "%d" float_of_int /. 1e9))
        0. tasks

(* The host's steal counter and the total, in ticks over every vCPU. *)
let steal_ticks () =
  match read_file "/proc/stat" with
  | exception Sys_error _ -> (0, 0)
  | stat ->
      let first = List.hd (String.split_on_char '\n' stat) in
      let f = List.filter_map int_of_string_opt (String.split_on_char ' ' first) in
      (List.fold_left ( + ) 0 f, Option.value (List.nth_opt f 7) ~default:0)

let steal_share (total0, steal0) =
  let total1, steal1 = steal_ticks () in
  if total1 = total0 then 0. else float_of_int (steal1 - steal0) /. float_of_int (total1 - total0)

type sample = { wall : float; cpu : float }

let measure cpu f =
  let c0 = cpu () and t0 = now () in
  let r = f () in
  let t1 = now () and c1 = cpu () in
  (r, { wall = t1 -. t0; cpu = c1 -. c0 })

let walls = List.map (fun s -> s.wall)
let cpus = List.map (fun s -> s.cpu)

let show samples =
  String.concat " " (List.map (fun s -> Printf.sprintf "%.3f/%.3f" s.wall s.cpu) samples)

let set_width jobs =
  Pool.set_default_jobs jobs;
  ignore (Pool.default ())

type metric = { name : string; value : float; unit : string }

let m name value unit = { name; value; unit }

type outcome = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;
  report : string list;  (* human-readable lines printed before the JSON *)
  loop : Json.t;
  steal : float;  (* the host's steal share while the run measured *)
}

(* Alternate two kinds of sample until [budget] seconds are spent,
   taking at least one of each; no sample starts that its kind's last
   wall time says would overrun. Returns the samples of each kind. *)
let alternate ~budget first second =
  let t0 = now () in
  let a = ref [] and b = ref [] in
  let fits = function [] -> true | last :: _ -> now () -. t0 +. last.wall <= budget in
  let rec go turn =
    let samples, f = if turn then (a, first) else (b, second) in
    if fits !samples then samples := f () :: !samples;
    if fits !a || fits !b then go (not turn)
  in
  go true;
  (List.rev !a, List.rev !b)

(* ------------------------------------------------------------------ *)
(* Batch workloads: coverage, certify                                  *)
(* ------------------------------------------------------------------ *)

(* One built instance of a batch workload. [call] is the driver call a
   user makes, returning its result digest and the work items it
   completed; [replay] re-extracts and canonicalises the instance's
   own views under the recorder's spans (see [replay_views]). *)
type batch_instance = {
  call : unit -> string * int;
  replay : Spans.t -> int * int;
}

type batch = {
  pin_key : string;  (* the BENCH_scale.json row every call reproduces *)
  items : string;    (* what [call]'s work-item count counts *)
  items_metric : string option;  (* the per-layer metric that count is *)
  build : unit -> batch_instance;
}

(* Extract the view of every centre of [instances], then canonicalise
   every [stride]-th of them; returns both counts. Only the views to be
   keyed are kept: G(M,1) labels carry whole machines, so keying all
   105k certify views would take gigabytes. *)
let replay_views rec_ ~equal ~radius ~stride instances =
  let kept = ref [] and extracted = ref 0 in
  Spans.span rec_ "View.extract" (fun () ->
      List.iter
        (fun (ids, lg) ->
          for v = 0 to Labelled.order lg - 1 do
            let view = View.extract ?ids lg ~center:v ~radius in
            if !extracted mod stride = 0 then kept := view :: !kept;
            incr extracted
          done)
        instances);
  let canon = Canon.create ~equal () in
  Spans.span rec_ "Canon.key" (fun () ->
      List.iter (fun v -> ignore (Canon.key canon v)) !kept);
  (!extracted, List.length !kept)

(* The scale tier's f1-coverage input: T_r with arity 2, r = 2, t = 3
   and f(n) = n + 5. *)
let coverage =
  let p = { Tree_instances.regime = Ids.f_linear_plus 5; arity = 2; r = 2 } in
  let t = 3 in
  {
    pin_key = "f1-coverage-scale@j1";
    items = "nodes";
    items_metric = None;
    build =
      (fun () ->
        (* The T_r the driver reads: [Tree_instances.big_tree] caches it
           for the process, and the arena of its first extraction too. *)
        let tr = Tree_instances.big_tree p in
        ignore (View.extract tr ~center:0 ~radius:t);
        {
          call =
            (fun () ->
              let c = Tree_deciders.coverage p ~t in
              ( digest_of
                  ( c.Tree_deciders.covered,
                    c.Tree_deciders.total_views,
                    c.Tree_deciders.uncovered_node ),
                Labelled.order tr ));
          replay =
            (fun rec_ -> replay_views rec_ ~equal:( = ) ~radius:t ~stride:1 [ (None, tr) ]);
        });
  }

(* The scale tier's certify sweep: the Theorem 2 LD decider over six
   G(M,1) instances. *)
let certify =
  let machines =
    Locald_turing.Zoo.
      [
        two_faced ~steps:3 ~real:0 ~fake:1;
        two_faced ~steps:4 ~real:0 ~fake:1;
        two_faced ~steps:5 ~real:0 ~fake:1;
        walk ~steps:20 ~output:0;
        walk ~steps:50 ~output:0;
        zigzag ~half:10 ~output:0;
      ]
  in
  let names =
    [ "two_faced-s3"; "two_faced-s4"; "two_faced-s5"; "walk-s20"; "walk-s50"; "zigzag-h10" ]
  in
  let config = { (Gmr.default_config ~r:1) with Gmr.fragment_cap = 100 } in
  {
    pin_key = "certify-gmr-scale@j1";
    items = "trace events";
    items_metric = Some "trace.events";
    build =
      (fun () ->
        let instances =
          List.map2
            (fun name machine ->
              match Gmr.build ~config ~r:1 machine with
              | Ok t -> (name, t.Gmr.lg)
              | Error _ -> die 1 "G(M,1) for %s did not build" name)
            names machines
        in
        List.iter (fun (_, lg) -> ignore (View.extract lg ~center:0 ~radius:1)) instances;
        let radius = (Gmr_deciders.ld_decider ()).Algorithm.radius in
        {
          call =
            (fun () ->
              let r =
                Analysis.certify ~budget:50_000 (Gmr_deciders.ld_decider ()) ~instances
              in
              ( digest_of
                  ( Analysis.verdict_name r.Analysis.rep_verdict,
                    r.Analysis.rep_views,
                    r.Analysis.rep_events,
                    r.Analysis.rep_max_depth ),
                r.Analysis.rep_events ));
          replay =
            (fun rec_ ->
              replay_views rec_ ~equal:Gmr.equal_label ~radius ~stride:64
                (List.map
                   (fun (_, lg) -> (Some (Array.init (Labelled.order lg) Fun.id), lg))
                   instances));
        });
  }

let setups = 3

(* The library caches T_r and its arena for the process, so only a
   fresh process pays the set-up a user pays. Each of [setups] child
   processes builds the instance once and prints the wall and CPU
   seconds of its own build; their median is setup_s. The instance the
   calls use is then built here, unmeasured. *)
let batch_setup args spec =
  let exe = Sys.executable_name in
  let probe () =
    let ic =
      Unix.open_process_args_in exe [| exe; "--workload"; args.workload; "--setup-probe" |]
    in
    let line = In_channel.input_line ic in
    match
      (Unix.close_process_in ic, Option.bind line (fun l -> Scanf.sscanf_opt l "%f %f%!" (fun wall cpu -> { wall; cpu })))
    with
    | Unix.WEXITED 0, Some s -> s
    | _ -> die 1 "set-up probe for %s failed" args.workload
  in
  let builds = List.init setups (fun _ -> probe ()) in
  (spec.build (), builds)

let batch_loop = Json.Obj [ ("type", Json.String "batch"); ("calls", Json.String "sequential") ]

let run_batch args spec =
  let pinned = pin "BENCH_scale.json" spec.pin_key in
  let failed = ref 0 and attempted = ref 0 and items = ref 0 in
  let sample inst width () =
    set_width width;
    Gc.full_major ();
    let (digest, n), s = measure cpu_self inst.call in
    incr attempted;
    items := n;
    if digest <> pinned then begin
      incr failed;
      Printf.printf "MISMATCH: %s digest %s at width %d, pinned %s\n%!" spec.pin_key
        digest width pinned
    end;
    s
  in
  let inst, builds = batch_setup args spec in
  (* One unmeasured call first: the samples are of warm caches and a
     grown heap. Its digest is checked like every other call's. *)
  ignore (sample inst host_cores ());
  let st = steal_ticks () in
  let full, seq = alternate ~budget:args.seconds (sample inst host_cores) (sample inst 1) in
  let steal = steal_share st in
  set_width host_cores;
  let run_s = Stats.median (walls full) in
  {
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0;
    metrics =
      [
        m "cpu_s" (Stats.median (cpus full)) "s";
        m "cpu_s_seq" (Stats.median (cpus seq)) "s";
        m "setup_s" (Stats.median (cpus builds)) "s";
        m "peak_rss_mb" (peak_rss_mb "self") "MB";
        m "run_s" run_s "s";
        m "run_s_seq" (Stats.median (walls seq)) "s";
        m "setup_wall_s" (Stats.median (walls builds)) "s";
        m "sat_rps" (float_of_int !items /. run_s) "1/s";
      ];
    report =
      [
        Printf.sprintf "samples (wall/cpu s): %d at width %d [%s], %d at width 1 [%s]"
          (List.length full) host_cores (show full) (List.length seq) (show seq);
        Printf.sprintf "set-up builds (wall/cpu s): [%s]" (show builds);
        Printf.sprintf "digest: every call reproduced BENCH_scale %s = %s: %b"
          spec.pin_key pinned (!failed = 0);
        Printf.sprintf "sat_rps counts %s per second (%d per call)" spec.items !items;
      ];
    loop = batch_loop;
    steal;
  }

(* Library telemetry read back after a traced call. *)
let counter json name =
  match Option.bind (Json.member "counters" json) (Json.member name) with
  | Some (Json.Int n) -> n
  | _ -> 0

let hist json name field =
  match
    Option.bind
      (Option.bind (Json.member "histograms" json) (Json.member ("span." ^ name)))
      (Json.member field)
  with
  | Some (Json.Float x) -> x
  | Some (Json.Int n) -> float_of_int n
  | _ -> 0.

let hist_sum json name = hist json name "sum_s"

let layer_metrics values =
  List.map
    (fun c ->
      m c.Catalog.name
        (Option.value (List.assoc_opt c.Catalog.name values) ~default:0.)
        c.Catalog.unit)
    Catalog.per_layer

(* [count name] reads a library counter and [sum name] a span
   histogram's total seconds, over whatever window the caller took. *)
let memo_values ~count ~sum =
  let hits = count "memo.hits" and misses = count "memo.misses" in
  [
    ("memo.hits", float_of_int hits);
    ("memo.misses", float_of_int misses);
    ("memo.distinct", float_of_int (count "memo.distinct"));
    ( "memo.hit_ratio",
      if hits + misses = 0 then 0. else float_of_int hits /. float_of_int (hits + misses) );
    ("memo.compute_s", sum "memo.compute");
    ("memo.evictions", float_of_int (count "memo.evictions"));
  ]

(* Pool figures from the span histograms: [pool.map] is the caller's
   wall time inside fan-outs, [pool.worker] each participant's busy
   time, so capacity unused inside fan-outs is the idle share. *)
let pool_values ~count ~sum ~jobs =
  let map_s = sum "pool.map" and worker_s = sum "pool.worker" in
  [
    ("pool.jobs_effective", float_of_int jobs);
    ("pool.map_s", map_s);
    ("pool.worker_s", worker_s);
    ( "pool.idle_frac",
      if map_s = 0. then 0. else Float.max 0. (1. -. (worker_s /. (map_s *. float_of_int jobs))) );
    ("pool.tasks", float_of_int (count "pool.tasks"));
    ("pool.steals", float_of_int (count "pool.steals"));
  ]

let gc_values (s : Spans.span) =
  [
    ("gc.minor_mw", s.Spans.minor_words /. 1e6);
    ("gc.promoted_mw", s.Spans.promoted_words /. 1e6);
    ("gc.minor_collections", float_of_int s.Spans.minor_gcs);
    ("gc.major_collections", float_of_int s.Spans.major_gcs);
  ]

let get all name =
  match Spans.find all name with Some s -> s | None -> die 1 "no %s span recorded" name

let trace_batch args spec =
  let pinned = pin "BENCH_scale.json" spec.pin_key in
  let rec_ = Spans.create () in
  let st = steal_ticks () in
  let inst, builds = Spans.span rec_ "setup" (fun () -> batch_setup args spec) in
  let setup_s = Stats.median (walls builds) in
  set_width host_cores;
  let jobs = Pool.jobs (Pool.default ()) in
  let warm, _ = inst.call () in
  Gc.full_major ();
  let (d0, _), untraced = measure cpu_self inst.call in
  Gc.full_major ();
  Telemetry.new_run ();
  Telemetry.set_metrics true;
  let (d1, items), traced_cpu = measure cpu_self (fun () -> Spans.span rec_ "driver" inst.call) in
  Telemetry.set_metrics false;
  let json = Telemetry.metrics_json () in
  let views, keyed = Spans.span rec_ "replay" (fun () -> inst.replay rec_) in
  let failed = List.length (List.filter (( <> ) pinned) [ warm; d0; d1 ]) in
  let all = Spans.spans rec_ in
  let driver = get all "driver" and extract = get all "View.extract" and key = get all "Canon.key" in
  let traced = Spans.duration driver in
  let map_s = hist_sum json "pool.map" in
  let certify_s = hist_sum json "analysis.certify" in
  let values =
    [
      ("view.extract_s", Spans.duration extract);
      ("view.extract_alloc_mw", extract.Spans.minor_words /. 1e6);
      ("view.extractions", float_of_int views);
      ("canon.key_s", Spans.duration key);
      ("canon.key_alloc_mw", key.Spans.minor_words /. 1e6);
      ("canon.hits", float_of_int (counter json "canon.hits"));
      ("canon.misses", float_of_int (counter json "canon.misses"));
      ("canon.fallback", float_of_int (counter json "canon.fallback"));
      ("pool.serial_s", Float.max 0. (traced -. map_s));
      ("analysis.certify_s", certify_s);
      ("certify.probes", float_of_int (counter json "certify.probes"));
      ("runner.decides", float_of_int (counter json "runner.decides"));
      ("setup.instance_s", setup_s);
      (* CPU time: the host's steal moves wall time by more than
         tracing does. *)
      ("trace.overhead_frac", (traced_cpu.cpu /. untraced.cpu) -. 1.);
    ]
    @ memo_values ~count:(counter json) ~sum:(hist_sum json)
    @ pool_values ~count:(counter json) ~sum:(hist_sum json) ~jobs
    @ gc_values driver
    @ Option.to_list (Option.map (fun name -> (name, float_of_int items)) spec.items_metric)
  in
  let v name = List.assoc name values in
  let row ?count layer what self =
    Spans.row ~self_s:self ~share:(self /. traced) ?count layer what
  in
  let rows =
    [
      Spans.row ~self_s:setup_s "set-up" "instance build (median of fresh processes)";
      Spans.row ~self_s:traced ~share:1. ~alloc_mw:(v "gc.minor_mw") ~count:items
        "driver" ("traced call, inclusive (" ^ spec.items ^ ")");
      row "lib/runtime Pool" "outside any fan-out (serial)" (v "pool.serial_s");
      row ~count:(counter json "pool.tasks") "lib/runtime Pool" "pool.map (caller wall)" map_s;
      row "lib/runtime Pool" "pool.worker (all domains)" (v "pool.worker_s");
      row ~count:(counter json "memo.misses") "lib/runtime Memo" "memo.compute (all domains)"
        (v "memo.compute_s");
    ]
    @ (if certify_s > 0. then
         [ row ~count:(counter json "certify.probes") "lib/analysis" "analysis.certify" certify_s ]
       else [])
    @ [
        Spans.span_row all ~reference:traced ~count:views ~layer:"lib/graph View" extract;
        Spans.span_row all ~reference:traced ~count:keyed ~layer:"lib/runtime Canon" key;
      ]
  in
  Spans.print_table stdout
    ~title:
      (Printf.sprintf
         "per-layer (%s, width %d): traced call %.3fs wall %.3fs cpu, untraced %.3fs wall \
          %.3fs cpu, overhead %+.1f%% cpu; GC %.1f Mw minor, %.1f Mw promoted, %d minor / %d \
          major collections; idle %.1f%%"
         args.workload jobs traced traced_cpu.cpu untraced.wall untraced.cpu
         (100. *. v "trace.overhead_frac")
         (v "gc.minor_mw") (v "gc.promoted_mw")
         (int_of_float (v "gc.minor_collections"))
         (int_of_float (v "gc.major_collections"))
         (100. *. v "pool.idle_frac"))
    ~reference_label:"%run_s" rows;
  {
    attempted = 3;
    failed;
    correct = failed = 0;
    metrics = layer_metrics values;
    report = [];
    loop = batch_loop;
    steal = steal_share st;
  }

(* ------------------------------------------------------------------ *)
(* The daemon                                                          *)
(* ------------------------------------------------------------------ *)

(* Sockets and daemon logs live here, relative to the checkout root:
   a Unix socket path must stay short wherever the checkout is. *)
let run_dir = Filename.concat "perfbench" ".run"

type daemon = { pid : int; sock : string; log : string }

let live : daemon list ref = ref []

let daemon_exe () =
  let build = Filename.dirname (Filename.dirname Sys.executable_name) in
  Filename.concat (Filename.concat build "bin") "locald.exe"

let stop d =
  if List.memq d !live then begin
    live := List.filter (fun x -> x != d) !live;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    (* SIGTERM drains; a daemon that has not exited in 10 s is killed. *)
    let deadline = now () +. 10. in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ when now () < deadline ->
          Unix.sleepf 0.01;
          reap ()
      | 0, _ ->
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ d.sock; d.log ]
  end

let cleanup () =
  List.iter stop !live;
  try Sys.rmdir run_dir with Sys_error _ -> ()

let proto_request ~id = function
  | Sched.Ping -> Proto.request ~id Proto.Ping
  | Sched.Decide { workload; lo; hi; sched_seed } ->
      let config =
        match sched_seed with
        | None -> Proto.no_config
        | Some s -> { Proto.no_config with Proto.c_backend = Some "async"; c_sched_seed = Some s }
      in
      Proto.request ~workload ~lo ~hi ~config ~id Proto.Decide

let call fd json =
  Proto.write_frame fd json;
  match Proto.read_frame fd with
  | Some r -> Proto.response_view r
  | None -> die 1 "daemon closed the connection"

(* Start a daemon with default flags and the host's width, and wait for
   its first answered ping. *)
let spawn k =
  (try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let base = Filename.concat run_dir (Printf.sprintf "%d-%d" (Unix.getpid ()) k) in
  let sock = base ^ ".sock" and log = base ^ ".log" in
  let exe = daemon_exe () in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process exe
      [| exe; "serve"; "--socket"; sock; "--jobs"; string_of_int host_cores |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  let d = { pid; sock; log } in
  live := d :: !live;
  let deadline = now () +. 30. in
  let rec connect () =
    match Proto.connect_unix sock with
    | fd -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        if now () > deadline then die 1 "daemon did not listen on %s within 30 s" sock;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (fun x -> x != d) !live;
            die 1 "daemon exited at start-up; its log: %s"
              (try read_file log with Sys_error _ -> "(none)"));
        Unix.sleepf 0.002;
        connect ()
  in
  let fd = connect () in
  let v = call fd (Proto.request_to_json (Proto.request ~id:0 Proto.Ping)) in
  Unix.close fd;
  if not v.Proto.v_ok then die 1 "daemon did not answer its first ping";
  d

(* ------------------------------------------------------------------ *)
(* The load generator                                                  *)
(* ------------------------------------------------------------------ *)

type phase = {
  latencies : float list;  (* seconds, successful requests only *)
  traced : float list;     (* latencies on the traced connection *)
  control : float list;    (* latencies on the others, when one is traced *)
  sent : int;
  failures : int;
  wall : float;            (* first send to last reply *)
  late_max : float;        (* open loop: worst send lateness, seconds *)
  bytes : int;             (* frames both ways *)
}

let request_timeout = 10.

let write_all fd b =
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* Drive [items] over [conns] connections. Open loop: item [k] is sent
   at its due time on connection [k mod conns] whatever is outstanding,
   and its latency runs from the due time. Closed loop: each connection
   sends its next item when its previous reply arrives, and latency
   runs from the send. [expect k] is the digest item [k]'s reply must
   carry (None for pings). With [~traced:(recorder, c)], every encode
   and decode on connection [c] is a span, and the other connections
   are the untraced control. *)
let drive ?traced ~sock ~conns ~open_loop ~expect items =
  let traced_conn = match traced with Some (_, c) -> c | None -> -1 in
  let span c name f =
    match traced with Some (r, tc) when c = tc -> Spans.span r name f | _ -> f ()
  in
  let n = Array.length items in
  let fds = Array.init conns (fun _ -> Proto.connect_unix sock) in
  let decoders = Array.init conns (fun _ -> Proto.decoder ()) in
  let alive = Array.make conns true in
  let owner = Array.make n (-1) in
  let start = Array.make n nan in
  let answered = Array.make n false in
  let latencies = ref [] and on_traced = ref [] and on_control = ref [] in
  let failures = ref 0 and late = ref 0. in
  let next = ref 0 and replies = ref 0 and bytes = ref 0 in
  let buf = Bytes.create 65536 in
  let t0 = now () in
  let last_progress = ref t0 and t_last = ref t0 in
  let send c k =
    let frame =
      span c "Proto.encode_frame" (fun () ->
          Proto.encode_frame (Proto.request_to_json (proto_request ~id:k items.(k).Sched.req)))
    in
    let t = now () in
    start.(k) <- (if open_loop then t0 +. items.(k).Sched.due else t);
    if open_loop then late := Float.max !late (t -. start.(k));
    owner.(k) <- c;
    bytes := !bytes + Bytes.length frame;
    (try write_all fds.(c) frame
     with Unix.Unix_error _ -> alive.(c) <- false);
    last_progress := t
  in
  let settle k ok =
    if not answered.(k) then begin
      answered.(k) <- true;
      incr replies;
      let t = now () in
      t_last := t;
      last_progress := t;
      if not ok then incr failures
      else begin
        let l = t -. start.(k) in
        latencies := l :: !latencies;
        if owner.(k) = traced_conn then on_traced := l :: !on_traced
        else on_control := l :: !on_control
      end
    end
  in
  let on_frame c json =
    let v = span c "Proto.response_view" (fun () -> Proto.response_view json) in
    match v.Proto.v_id with
    | Some k when k >= 0 && k < n && owner.(k) = c ->
        let ok =
          v.Proto.v_ok && (not v.Proto.v_busy)
          &&
          match expect k with
          | None -> true
          | Some d -> (
              match Option.bind v.Proto.v_result (Json.member "digest") with
              | Some (Json.String got) -> got = d
              | _ -> false)
        in
        if not ok then
          Printf.printf "FAILED request %d (%s): %s\n%!" k
            (Sched.request_to_string items.(k).Sched.req)
            (match v.Proto.v_error with
            | Some e -> e
            | None -> if v.Proto.v_busy then "busy" else "digest differs from in-process Sweeps");
        settle k ok;
        if (not open_loop) && !next < n && alive.(c) then begin
          send c !next;
          incr next
        end
    | _ -> incr failures
  in
  let drop_conn c =
    alive.(c) <- false;
    Array.iteri (fun k o -> if o = c && not answered.(k) then settle k false) owner
  in
  if not open_loop then
    for c = 0 to min conns n - 1 do
      send c !next;
      incr next
    done;
  while !replies < n && Array.exists Fun.id alive do
    if open_loop then
      while !next < n && t0 +. items.(!next).Sched.due <= now () do
        let k = !next in
        incr next;
        let c = k mod conns in
        if alive.(c) then send c k else settle k false
      done;
    if now () -. !last_progress > request_timeout then begin
      Printf.printf "TIMEOUT: no reply for %.0f s; outstanding requests fail\n%!" request_timeout;
      Array.iteri (fun c _ -> drop_conn c) alive
    end
    else begin
      let wait =
        if open_loop && !next < n then Float.max 0. (t0 +. items.(!next).Sched.due -. now ())
        else 0.5
      in
      let readable =
        let fds = List.filteri (fun c _ -> alive.(c)) (Array.to_list fds) in
        match Unix.select fds [] [] (Float.min wait 0.5) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun fd ->
          let c =
            let rec find i = if fds.(i) == fd then i else find (i + 1) in
            find 0
          in
          match Unix.read fd buf 0 (Bytes.length buf) with
          | 0 -> drop_conn c
          | exception Unix.Unix_error _ -> drop_conn c
          | len ->
              bytes := !bytes + len;
              span c "Proto.feed" (fun () -> Proto.feed decoders.(c) buf 0 len);
              let rec pull () =
                match span c "Proto.next" (fun () -> Proto.next decoders.(c)) with
                | Some (Proto.Frame json) ->
                    on_frame c json;
                    pull ()
                | Some (Proto.Garbage _) ->
                    incr failures;
                    pull ()
                | Some (Proto.Corrupt _) -> drop_conn c
                | None -> ()
              in
              pull ())
        readable
    end
  done;
  Array.iter Unix.close fds;
  (* Items never sent (every connection lost) count as failed. *)
  failures := !failures + (n - !replies);
  {
    latencies = !latencies;
    traced = !on_traced;
    control = !on_control;
    sent = n;
    failures = !failures;
    wall = !t_last -. t0;
    late_max = !late;
    bytes = !bytes;
  }

(* ------------------------------------------------------------------ *)
(* Serve workloads: serve-hot, serve-churn                             *)
(* ------------------------------------------------------------------ *)

(* The fixed offered rates sit below saturation on a slow host: the
   high rate is at most 60% of the lowest closed-loop throughput
   measured on a 2-vCPU guest whose steal share reached 40% (serve-hot
   204 requests/s, serve-churn 90/s; README.md), so queueing stays
   short of the daemon's inflight bound and no request is refused.
   Every run prints the share of its own sat_rps that each rate is. *)
type serve_spec = {
  rate_low : float;   (* offered requests per second, low fixed rate *)
  rate_high : float;  (* high fixed rate *)
  pass_n : int;       (* requests per closed-loop pass *)
  draw : Random.State.t -> int -> Sched.request;
  warm : Sched.request list;
  mix : string;       (* one line describing [draw], for the report *)
}

let decide ?sched_seed workload ~lo ~len =
  Sched.Decide { workload; lo; hi = lo + len; sched_seed }

let exhaustive = "exhaustive-decider"
let exhaustive_total = 40320

(* Hot: small ranges inside a 4096-rank window of exhaustive-decider
   under two configs, both of which stay cached, plus pings. The
   window's decide-once keys fit one engine's memo table, so after the
   warm-up every request reads warm state. *)
let serve_hot =
  let window = 4096 and len = 256 in
  let lo st = Random.State.int st (window - len + 1) in
  {
    rate_low = 20.;
    rate_high = 120.;
    pass_n = 400;
    draw =
      (fun st _ ->
        Sched.pick st
          [
            (6, fun st -> decide exhaustive ~lo:(lo st) ~len);
            (3, fun st -> decide ~sched_seed:7 exhaustive ~lo:(lo st) ~len);
            (1, fun _ -> Sched.Ping);
          ]);
    warm =
      [
        decide exhaustive ~lo:0 ~len:window;
        decide ~sched_seed:7 exhaustive ~lo:0 ~len:window;
      ];
    mix =
      Printf.sprintf
        "60%% decide %s sync, 30%% async seed 7, %d ranks inside [0,%d); 10%% ping"
        exhaustive len window;
  }

(* Churn: ranges anywhere in the 40,320 ranks, and 40% of the requests
   carry an async scheduler seed cycling through 12 configs, more than
   the daemon's 8 cached engines, so LRU eviction and engine builds
   land on the request path and the sync engine's memo never holds the
   whole space (85,680 keys against a 65,536 cap). *)
let serve_churn =
  let len = 256 and configs = 12 in
  let lo st = Random.State.int st (exhaustive_total - len + 1) in
  {
    rate_low = 10.;
    rate_high = 50.;
    pass_n = 300;
    draw =
      (fun st i ->
        Sched.pick st
          [
            (5, fun st -> decide exhaustive ~lo:(lo st) ~len);
            (4, fun st -> decide ~sched_seed:(100 + (i mod configs)) exhaustive ~lo:(lo st) ~len);
            (1, fun _ -> Sched.Ping);
          ]);
    warm = [ decide exhaustive ~lo:0 ~len ];
    mix =
      Printf.sprintf
        "50%% decide %s sync, 40%% async seeds cycling over %d configs, %d ranks anywhere \
         in [0,%d); 10%% ping"
        exhaustive configs len exhaustive_total;
  }

(* Reference digests: one in-process Sweeps engine per workload
   (default config, unbounded memo). Results are config-transparent,
   so async replies are checked against the synchronous simulator. *)
let references () =
  let engines = Hashtbl.create 4 and memo = Hashtbl.create 4096 in
  let eval workload ~lo ~hi =
    let engine =
      match Hashtbl.find_opt engines workload with
      | Some e -> e
      | None ->
          let w =
            match Sweeps.find workload with
            | Some w -> w
            | None -> die 1 "no Sweeps workload %s" workload
          in
          let e = w.Sweeps.w_eval () in
          Hashtbl.replace engines workload e;
          e
    in
    let r = engine ~lo ~hi in
    Shard.result_digest ~correct:r.Shard.r_correct ~wrong:r.Shard.r_wrong ~assignments:(hi - lo)
  in
  fun req ->
    match req with
    | Sched.Ping -> None
    | Sched.Decide { workload; lo; hi; _ } -> (
        match Hashtbl.find_opt memo (workload, lo, hi) with
        | Some d -> Some d
        | None ->
            let d = eval workload ~lo ~hi in
            Hashtbl.replace memo (workload, lo, hi) d;
            Some d)

(* The cross-tier pin: the reference engine's full-range digest is the
   committed BENCH_quick one-shot digest. *)
let check_reference_pin reference =
  let pinned = pin "BENCH_quick.json" "exhaustive-decider@j1" in
  let got = reference (decide exhaustive ~lo:0 ~len:exhaustive_total) in
  if got <> Some pinned then
    die 1 "in-process %s digest %s differs from BENCH_quick pin %s" exhaustive
      (Option.value got ~default:"-") pinned

type serve_setup = {
  daemon : daemon;
  setup_cpu : float;   (* median daemon CPU seconds from exec to warm *)
  setup_wall : float;  (* median wall seconds from spawn to warm *)
  daemon_s : float;    (* the kept daemon: spawn to first ping *)
  warm_s : float;      (* the kept daemon: warm-up requests *)
}

(* Start a daemon and warm its engines [setups] times; keep the last. *)
let serve_setup spec reference =
  let warm_items = Array.of_list (List.map (fun req -> { Sched.due = 0.; req }) spec.warm) in
  let expect k = reference warm_items.(k).Sched.req in
  let once k =
    let d, daemon_s = Timing.time (fun () -> spawn k) in
    let p, warm_s =
      Timing.time (fun () -> drive ~sock:d.sock ~conns:1 ~open_loop:false ~expect warm_items)
    in
    if p.failures > 0 then die 1 "daemon failed its warm-up requests";
    (d, daemon_s, warm_s, cpu_of d.pid)
  in
  let runs = List.init setups once in
  List.iteri (fun i (d, _, _, _) -> if i < setups - 1 then stop d) runs;
  let d, daemon_s, warm_s, _ = List.nth runs (setups - 1) in
  {
    daemon = d;
    setup_cpu = Stats.median (List.map (fun (_, _, _, c) -> c) runs);
    setup_wall = Stats.median (List.map (fun (_, a, b, _) -> a +. b) runs);
    daemon_s;
    warm_s;
  }

let phase_items spec args ~phase ~rate ~share =
  let n = max 20 (int_of_float (Float.round (rate *. share *. args.seconds))) in
  Sched.open_loop ~seed:args.seed ~phase ~rate ~n spec.draw

let ms x = 1000. *. x

let serve_loop spec ~conns =
  Json.Obj
    [
      ("type", Json.String "open+closed");
      ("rate_low", Json.Float spec.rate_low);
      ("rate_high", Json.Float spec.rate_high);
      ("connections", Json.Int conns);
      ("closed_pass_requests", Json.Int spec.pass_n);
    ]

(* The reference digests, checked against the pin, and the two
   open-loop phases, generated from the seed. *)
let serve_inputs args spec =
  let reference = references () in
  check_reference_pin reference;
  let low = phase_items spec args ~phase:"low" ~rate:spec.rate_low ~share:0.2 in
  let high = phase_items spec args ~phase:"high" ~rate:spec.rate_high ~share:0.2 in
  (reference, low, high)

let run_serve args spec =
  let reference, low, high = serve_inputs args spec in
  let conns = host_cores in
  let pass i = Sched.closed_loop ~seed:args.seed ~phase:(Printf.sprintf "pass-%d" i) ~n:spec.pass_n spec.draw in
  let expect items k = reference items.(k).Sched.req in
  (* References are computed before the requests they check are sent,
     never while the daemon is being timed. *)
  let precompute items = Array.iter (fun it -> ignore (reference it.Sched.req)) items in
  precompute low;
  precompute high;
  let s = serve_setup spec reference in
  let sock = s.daemon.sock in
  let st = steal_ticks () in
  let open_phase items = drive ~sock ~conns ~open_loop:true ~expect:(expect items) items in
  let p_low = open_phase low and p_high = open_phase high in
  let used = ref 0 and closed = ref [] in
  let pass_sample width () =
    let items = pass !used in
    incr used;
    precompute items;
    let p, sample =
      measure
        (fun () -> cpu_of s.daemon.pid)
        (fun () -> drive ~sock ~conns:width ~open_loop:false ~expect:(expect items) items)
    in
    closed := p :: !closed;
    sample
  in
  let full, seq = alternate ~budget:(0.5 *. args.seconds) (pass_sample conns) (pass_sample 1) in
  let steal = steal_share st in
  let rss = peak_rss_mb (string_of_int s.daemon.pid) in
  stop s.daemon;
  let phases = p_low :: p_high :: !closed in
  let attempted = List.fold_left (fun a p -> a + p.sent) 0 phases in
  let failed = List.fold_left (fun a p -> a + p.failures) 0 phases in
  let run_s = Stats.median (walls full) in
  let lat name p =
    let p50 = if p.latencies = [] then nan else ms (Stats.median p.latencies) in
    let tail, pct =
      match Stats.tail p.latencies with
      | Some t -> (ms t.Stats.value, t.Stats.percentile)
      | None -> (nan, nan)
    in
    ( [ m ("lat_p50_ms." ^ name) p50 "ms"; m ("lat_tail_ms." ^ name) tail "ms" ],
      Printf.sprintf
        "%s rate: %d requests, p50 %.3f ms, tail p%.2f = %.3f ms over %d samples, \
         generator late by at most %.3f ms, %d failed"
        name p.sent p50 pct tail (List.length p.latencies) (ms p.late_max) p.failures )
  in
  let low_m, low_r = lat "low" p_low and high_m, high_r = lat "high" p_high in
  let sat_rps = float_of_int spec.pass_n /. run_s in
  {
    attempted;
    failed;
    correct = failed = 0;
    metrics =
      [
        m "cpu_s" (Stats.median (cpus full)) "s";
        m "cpu_s_seq" (Stats.median (cpus seq)) "s";
        m "setup_s" s.setup_cpu "s";
        m "peak_rss_mb" rss "MB";
        m "run_s" run_s "s";
        m "run_s_seq" (Stats.median (walls seq)) "s";
        m "setup_wall_s" s.setup_wall "s";
        m "sat_rps" sat_rps "1/s";
      ]
      @ low_m @ high_m;
    report =
      [
        "mix: " ^ spec.mix;
        Printf.sprintf "schedule digests: low %s, high %s, pass-0 %s" (Sched.digest low)
          (Sched.digest high) (Sched.digest (pass 0));
        low_r;
        high_r;
        Printf.sprintf "offered load: the low rate is %.1f%% and the high rate %.1f%% of sat_rps"
          (100. *. spec.rate_low /. sat_rps) (100. *. spec.rate_high /. sat_rps);
        Printf.sprintf
          "closed loop (wall/daemon cpu s): %d passes of %d requests over %d connections \
           [%s], %d over 1 [%s]"
          (List.length full) spec.pass_n conns (show full) (List.length seq) (show seq);
        Printf.sprintf "set-up: daemon start to first ping %.3f s, warm-up %.3f s (last of %d)"
          s.daemon_s s.warm_s setups;
      ];
    loop = serve_loop spec ~conns;
    steal;
  }

let trace_serve args spec =
  (* The same schedules the untraced run offers. Connection 1 is traced
     and connection 0 is the control, so there are at least two. *)
  let reference, low, high = serve_inputs args spec in
  let conns = max 2 host_cores in
  let traced_items = Array.append low high in
  Array.iter (fun it -> ignore (reference it.Sched.req)) traced_items;
  let expect items k = reference items.(k).Sched.req in
  let rec_ = Spans.create () in
  let st = steal_ticks () in
  let s = serve_setup spec reference in
  let sock = s.daemon.sock in
  let metrics () =
    let fd = Proto.connect_unix sock in
    let v = call fd (Proto.request_to_json (Proto.request ~id:0 Proto.Metrics)) in
    Unix.close fd;
    match v.Proto.v_result with Some j -> j | None -> die 1 "metrics request failed"
  in
  let before = metrics () in
  let phase items = drive ~traced:(rec_, 1) ~sock ~conns ~open_loop:true ~expect:(expect items) items in
  let p_lt = phase low in
  let p_ht = phase high in
  let after = metrics () in
  stop s.daemon;
  (* Deltas of the daemon's run-scoped telemetry over the traced phases. *)
  let dc name = counter after name - counter before name in
  let dh name field = hist after name field -. hist before name field in
  let ds name = dh name "sum_s" in
  let requests = dc "serve.requests" in
  let service_s = ds "serve.request" /. Float.max 1. (dh "serve.request" "count") in
  let lats = p_lt.latencies @ p_ht.latencies in
  let mean_lat = Stats.mean lats in
  (* The daemon's request path replayed in process over the requests
     its kept instance saw (warm-up, then both phases), through
     Service's own engine cache, with the library's metrics on. *)
  let handlers = Service.handlers (Service.create ()) in
  let replayed =
    Array.append (Array.of_list (List.map (fun req -> { Sched.due = 0.; req }) spec.warm)) traced_items
  in
  Telemetry.new_run ();
  Telemetry.set_metrics true;
  Spans.span rec_ "Service replay" (fun () ->
      Array.iteri
        (fun k it ->
          ignore (handlers.Serve.on_request (Proto.request_to_json (proto_request ~id:k it.Sched.req))))
        replayed);
  Telemetry.set_metrics false;
  let inproc = Telemetry.metrics_json () in
  let mean_hist name = hist inproc name "sum_s" /. Float.max 1. (hist inproc name "count") in
  let builds = counter inproc "serve.engine_builds"
  and evictions = counter inproc "serve.engine_evictions" in
  let lg =
    Tree_instances.small_instance
      { Tree_instances.regime = Ids.f_linear_plus 1; arity = 2; r = 2 }
      ~apex:(0, 1)
  in
  let views, _ =
    Spans.span rec_ "View/Canon replay" (fun () ->
        replay_views rec_ ~equal:Tree_instances.equal_label ~radius:1 ~stride:1 [ (None, lg) ])
  in
  let all = Spans.spans rec_ in
  let total name = List.filter (fun sp -> sp.Spans.name = name) all in
  let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs in
  let mean_dur name =
    match total name with [] -> 0. | xs -> sum Spans.duration xs /. float_of_int (List.length xs)
  in
  let encodes = total "Proto.encode_frame" and frames = total "Proto.response_view" in
  (* Decoding a frame is its share of feeding the bytes in, the
     decoder's [next] calls (one more per read, returning None) and the
     response view; the total is divided by the frames decoded. *)
  let decode_s =
    List.fold_left (fun a name -> a +. sum Spans.duration (total name)) 0.
      [ "Proto.feed"; "Proto.next"; "Proto.response_view" ]
    /. Float.max 1. (float_of_int (List.length frames))
  in
  let replay = get all "Service replay" and extract = get all "View.extract" and key = get all "Canon.key" in
  let traced_median = Stats.median (p_lt.traced @ p_ht.traced)
  and untraced_median = Stats.median (p_lt.control @ p_ht.control) in
  let values =
    [
      ("view.extract_s", Spans.duration extract);
      ("view.extract_alloc_mw", extract.Spans.minor_words /. 1e6);
      ("view.extractions", float_of_int views);
      ("canon.key_s", Spans.duration key);
      ("canon.key_alloc_mw", key.Spans.minor_words /. 1e6);
      ("canon.hits", float_of_int (dc "canon.hits"));
      ("canon.misses", float_of_int (dc "canon.misses"));
      ("canon.fallback", float_of_int (dc "canon.fallback"));
      ("pool.serial_s", Float.max 0. (ds "serve.request" -. ds "pool.map"));
      ("runner.decides", float_of_int (dc "runner.decides"));
      ("decider.range_s", ds "decider.evaluate_range");
      ("proto.encode_us", 1e6 *. mean_dur "Proto.encode_frame");
      ("proto.decode_us", 1e6 *. decode_s);
      ("proto.bytes", float_of_int (p_lt.bytes + p_ht.bytes));
      ("serve.service_ms", ms service_s);
      ("serve.wait_ms", ms (mean_lat -. service_s));
      ("serve.busy", float_of_int (dc "serve.busy"));
      ("serve.requests", float_of_int requests);
      ("service.engine_builds", float_of_int (dc "serve.engine_builds"));
      ("service.engine_evictions", float_of_int (dc "serve.engine_evictions"));
      ("service.engine_build_ms", ms (mean_hist "runner.prepare"));
      ("service.eval_ms", ms (mean_hist "decider.evaluate_range"));
      ("setup.daemon_s", s.daemon_s);
      ("setup.warm_s", s.warm_s);
      ("gen.late_ms", ms (Float.max p_lt.late_max p_ht.late_max));
      ("gen.sent", float_of_int (p_lt.sent + p_ht.sent));
      ("trace.overhead_frac", (traced_median /. untraced_median) -. 1.);
    ]
    @ memo_values ~count:dc ~sum:ds
    @ pool_values ~count:dc ~sum:ds ~jobs:(Pool.jobs (Pool.default ()))
    @ gc_values replay
  in
  let v name = List.assoc name values in
  let per_request = ms mean_lat in
  let row ?count layer what ms_per_req =
    Spans.row ~self_s:(ms_per_req /. 1000.) ~share:(ms_per_req /. per_request) ?count layer what
  in
  let n_traced = p_lt.sent + p_ht.sent in
  let per_req x = ms x /. float_of_int (max 1 requests) in
  Spans.print_table stdout
    ~title:
      (Printf.sprintf
         "per-layer (%s): %d requests, mean latency %.3f ms; median %.3f ms traced, %.3f ms \
          control (overhead %+.1f%%); self_s is per request"
         args.workload n_traced per_request (ms traced_median) (ms untraced_median)
         (100. *. v "trace.overhead_frac"))
    ~reference_label:"%latency"
    [
      row ~count:(List.length encodes) "lib/runtime Proto" "encode (client)" (v "proto.encode_us" /. 1000.);
      row ~count:(List.length frames) "lib/runtime Proto" "decode (client)" (v "proto.decode_us" /. 1000.);
      row ~count:requests "lib/runtime Serve" "serve.request (daemon)" (v "serve.service_ms");
      row "lib/runtime Serve" "wait = latency - service" (v "serve.wait_ms");
      row "lib/decision Decider" "evaluate_range (daemon)" (per_req (v "decider.range_s"));
      row "lib/runtime Pool" "pool.map (daemon)" (per_req (v "pool.map_s"));
      row ~count:(int_of_float (v "memo.misses")) "lib/runtime Memo" "memo.compute (daemon)"
        (per_req (v "memo.compute_s"));
      row ~count:builds "lib/core Service" "engine build (in process)"
        (v "service.engine_build_ms" *. float_of_int builds /. float_of_int (Array.length replayed));
      row "lib/core Service" "range evaluation (in process)" (v "service.eval_ms");
      Spans.row ~self_s:(Spans.duration extract) ~count:views "lib/graph View" "View.extract (instance)";
      Spans.row ~self_s:(Spans.duration key) ~count:views "lib/runtime Canon" "Canon.key (instance)";
    ];
  Printf.printf
    "engine cache: %d builds, %d evictions in process (warm-up included); daemon: %d builds, \
     %d evictions over the traced phases\n"
    builds evictions (dc "serve.engine_builds") (dc "serve.engine_evictions");
  let failed = p_lt.failures + p_ht.failures in
  {
    attempted = n_traced;
    failed;
    correct = failed = 0;
    metrics = layer_metrics values;
    report = [];
    loop = serve_loop spec ~conns;
    steal = steal_share st;
  }

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let args = parse_args () in
  refuse_locald_env ();
  at_exit cleanup;
  let interrupted = Sys.Signal_handle (fun _ -> exit 130) in
  Sys.set_signal Sys.sigterm interrupted;
  Sys.set_signal Sys.sigint interrupted;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  set_width host_cores;
  let batch = if args.trace then trace_batch else run_batch in
  let serve = if args.trace then trace_serve else run_serve in
  let o =
    match args.workload with
    | ("coverage" | "certify") as w ->
        let spec = if w = "coverage" then coverage else certify in
        if args.setup_probe then begin
          let _, s = measure cpu_self spec.build in
          Printf.printf "%.9f %.9f\n" s.wall s.cpu;
          exit 0
        end;
        batch args spec
    | _ when args.setup_probe -> die 2 "--setup-probe is for the batch workloads"
    | "serve-hot" -> serve args serve_hot
    | _ -> serve args serve_churn
  in
  Printf.printf "provenance: %s\n"
    (Json.to_string (provenance args ~loop:o.loop ~steal:o.steal));
  List.iter print_endline o.report;
  if not args.trace then
    List.iter (fun x -> Printf.printf "%-18s %14.6f %s\n" x.name x.value x.unit) o.metrics;
  Printf.printf "%-18s %14.6f ratio (%d failed of %d attempted)\n" "fail_frac"
    (float_of_int o.failed /. float_of_int (max 1 o.attempted))
    o.failed o.attempted;
  (* Exactly the catalogue's metrics, in its order. *)
  let gated =
    List.map
      (fun c ->
        match List.find_opt (fun x -> x.name = c.Catalog.name) o.metrics with
        | Some x -> x
        | None -> die 1 "%s was not measured" c.Catalog.name)
      (if args.trace then Catalog.per_layer else Catalog.end_to_end)
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool o.correct);
            ("attempted", Json.Int o.attempted);
            ("failed", Json.Int o.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun x -> (x.name, Json.Obj [ ("value", Json.Float x.value); ("unit", Json.String x.unit) ]))
                   gated) );
          ]));
  if not o.correct then exit 1

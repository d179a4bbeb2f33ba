(* The locald command-line interface: regenerate the paper's results
   table and figures from the library. *)

open Cmdliner
open Locald_core
open Locald_runtime

let quick_flag =
  Arg.(value & flag & info [ "quick" ] ~doc:"Smaller parameter sets (faster).")

(* Global reproducibility knob: every randomised experiment derives its
   random state from this one seed. *)
let seed_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Seed for the experiment's random state (reproducible runs).")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the run, print decide-once cache traffic, \
           canonicalisation statistics and the number of quotient \
           restrictions scanned.")

(* Tracing knob: a JSONL sink recording spans, events and injected
   faults. Observation only — results and digests are identical with or
   without it (property-tested). Not an engine flag: [client] has no
   sink to open. *)
let trace_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSONL event trace (spans, runtime events, injected \
           faults) to $(docv). Purely observational: results are \
           byte-identical with tracing on or off.")

let apply_trace trace = Option.iter Telemetry.open_sink trace

(* ------------------------------------------------------------------ *)
(* Engine flags                                                        *)
(* ------------------------------------------------------------------ *)

(* The four engine flags, declared once: pool width and the simulator
   backend. Results are byte-identical under every setting (pinned by
   the determinism and cross-backend batteries); only who computes
   what changes. A subcommand takes them as one [engine] value,
   resolved in process, forwarded to shard children, or sent as a
   request's config. *)
type engine = {
  jobs : int option;
  backend : string option;
  sched_seed : int option;
  fifo : bool;
}

(* [~jobs:false] / [~backend:false] leave those flags off a subcommand
   that has no use for them; their fields then stay unset. *)
let engine_term ?(jobs = true) ?(backend = true) () =
  let jobs_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the parallel experiment stages (default: \
             $(b,LOCALD_JOBS), else the recommended domain count). \
             Results do not depend on this value.")
  in
  let backend_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "backend" ] ~docv:"BACKEND"
          ~doc:
            "Simulator backend: $(b,sync) (direct view extraction) or \
             $(b,async) (message passing under a seeded adversarial \
             scheduler). Results are byte-identical either way. Default \
             sync.")
  in
  let sched_seed_opt =
    Arg.(
      value
      & opt (some int) None
      & info [ "sched-seed" ] ~docv:"SEED"
          ~doc:
            "Adversarial scheduler seed for the async backend (implies \
             $(b,--backend async); default 0). Results do not depend on \
             this value.")
  in
  let fifo_flag =
    Arg.(
      value & flag
      & info [ "fifo" ]
          ~doc:
            "Per-link FIFO delivery for the async backend (implies \
             $(b,--backend async)): the adversary interleaves across \
             links but preserves each link's send order.")
  in
  let unset v = Term.const v in
  Term.(
    const (fun jobs backend sched_seed fifo ->
        { jobs; backend; sched_seed; fifo })
    $ (if jobs then jobs_opt else unset None)
    $ (if backend then backend_opt else unset None)
    $ (if backend then sched_seed_opt else unset None)
    $ if backend then fifo_flag else unset false)

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("locald: " ^ msg);
      exit Shard.Exit.usage)
    fmt

(* Size the pool and read the backend flags, as [serve] reads a
   request's: the backend to pass on ([None] when no backend flag was
   given) or a usage error. *)
let resolve_engine e =
  Option.iter Pool.set_default_jobs e.jobs;
  match
    Locald_local.Backend.resolve e.backend ~sched_seed:e.sched_seed
      ~fifo:(if e.fifo then Some true else None)
  with
  | Ok backend -> backend
  | Error msg -> usage_error "%s" msg

(* The same flags on a child's command line: a [sweep] supervisor's
   shard children evaluate under the engine it was asked for. *)
let engine_argv e =
  let opt flag show = function Some v -> [ flag; show v ] | None -> [] in
  opt "--jobs" string_of_int e.jobs
  @ opt "--backend" Fun.id e.backend
  @ opt "--sched-seed" string_of_int e.sched_seed
  @ if e.fifo then [ "--fifo" ] else []

(* The same flags as one request's configuration for [client]. *)
let engine_config e =
  {
    Proto.c_backend = e.backend;
    c_sched_seed = e.sched_seed;
    c_fifo = (if e.fifo then Some true else None);
  }

let print_runtime_stats () =
  let m = Memo.run_stats () in
  let c = Canon.run_stats () in
  Printf.printf
    "memo: %d hits, %d misses, %d distinct keys; %d orbit restrictions \
     scanned\n"
    m.Memo.hits m.Memo.misses m.Memo.distinct (Orbit.scanned ());
  Printf.printf "canon: %d keys, %d exact, %d fallback\n" c.Canon.keys
    c.Canon.exact c.Canon.fallback

let maybe_stats stats = if stats then print_runtime_stats ()

(* ------------------------------------------------------------------ *)
(* The paper's experiments                                             *)
(* ------------------------------------------------------------------ *)

let run_cmd (x : Registry.experiment) =
  let run quick seed engine stats trace =
    let backend = resolve_engine engine in
    apply_trace trace;
    let (print, _), wall =
      Timing.time (x.e_run ?backend ~quick ~seed)
    in
    print ();
    Report.print_timings
      [
        {
          Report.t_experiment = x.e_name;
          t_wall = wall;
          t_jobs = Pool.default_jobs ();
          t_speedup = None;
        };
      ];
    maybe_stats stats
  in
  Cmd.v (Cmd.info x.e_name ~doc:x.e_doc)
    Term.(
      const run $ quick_flag $ seed_opt $ engine_term () $ stats_flag
      $ trace_opt)

(* The one experiment with knobs of its own: the fault axes override
   its scenario grid, so it runs [Experiments.faults] directly under
   the registry entry's name and doc. *)
let faults_cmd (x : Registry.experiment) =
  let run quick seed engine trace drop crashes fuel retries runs =
    ignore (resolve_engine engine : Locald_local.Backend.t option);
    apply_trace trace;
    (* Plan validation raises Invalid_argument; turn it into a usage
       error instead of an "internal error" backtrace. *)
    match
      Experiments.faults ~quick ?seed ?drop ?crashes ?fuel ?retries ?runs ()
    with
    | rows -> Report.print_faults rows
    | exception Invalid_argument msg ->
        prerr_endline ("locald: " ^ msg);
        exit Shard.Exit.usage
  in
  let drop =
    Arg.(
      value
      & opt (some float) None
      & info [ "drop" ] ~docv:"P"
          ~doc:"Per-message loss probability in [0, 1].")
  in
  let crashes =
    Arg.(
      value
      & opt (some int) None
      & info [ "crashes" ] ~docv:"K"
          ~doc:"Number of crash-stop node failures to inject.")
  in
  let fuel =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"F"
          ~doc:"Per-node fuel budget for the decide step.")
  in
  let retries =
    Arg.(
      value
      & opt (some int) None
      & info [ "retries" ] ~docv:"R"
          ~doc:"Extra re-gossip rounds beyond the horizon's radius+1.")
  in
  let runs =
    Arg.(
      value
      & opt (some int) None
      & info [ "runs" ] ~docv:"N" ~doc:"Faulted runs per scenario.")
  in
  Cmd.v (Cmd.info x.e_name ~doc:x.e_doc)
    Term.(
      const run $ quick_flag $ seed_opt
      $ engine_term ~backend:false ()
      $ trace_opt $ drop $ crashes $ fuel $ retries $ runs)

let experiment_cmds =
  List.map
    (fun (x : Registry.experiment) ->
      if x.e_name = "faults" then faults_cmd x else run_cmd x)
    Registry.experiments

(* ------------------------------------------------------------------ *)
(* Certification and static analysis                                  *)
(* ------------------------------------------------------------------ *)

let certify_cmd =
  (* No timing output here, deliberately: CI asserts the certification
     run is byte-identical at --jobs 1 and --jobs 4. *)
  let run _all quick engine stats trace =
    let backend = resolve_engine engine in
    apply_trace trace;
    let rows = Locald_core.Certify.run ~quick ?backend () in
    Report.print_certify rows;
    maybe_stats stats;
    (* Exit 3 (verdict mismatch), per the README's exit-code
       convention shared with [merge --expect-digest]. *)
    if not (Locald_core.Certify.all_ok rows) then exit Shard.Exit.mismatch
  in
  let all_flag =
    Arg.(
      value & flag
      & info [ "all" ]
          ~doc:
            "Certify every registered decider (the default; present for \
             symmetry with the other subcommands).")
  in
  Cmd.v
    (Cmd.info "certify"
       ~doc:
         "Certify the bundled deciders as Id-oblivious or Id-dependent by \
          access-trace provenance analysis; non-zero exit on any verdict \
          that contradicts a decider's declared classification.")
    Term.(
      const run $ all_flag $ quick_flag $ engine_term ~backend:false ()
      $ stats_flag $ trace_opt)

(* The analyser covers the whole tree by default: library, bench, CLI
   and example code plus the tests (test-only idioms go through
   --allow-test, not through a blind spot). *)
let default_scan_roots = [ "lib"; "bench"; "bin"; "test"; "examples" ]

let scan_roots_arg roots =
  let roots = if roots = [] then default_scan_roots else roots in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if missing <> [] then begin
    prerr_endline
      ("locald analyze: no such path: " ^ String.concat ", " missing);
    exit Shard.Exit.usage
  end;
  roots

(* Parse --rule / --allow-test rule names, failing with the usage exit
   code (and the known-rule list) on a typo. *)
let parse_rule_names names =
  List.map
    (fun n ->
      match Locald_analysis.Ast_rules.of_name n with
      | Some r -> r
      | None ->
          prerr_endline
            (Printf.sprintf "locald analyze: unknown rule %S (known: %s)" n
               (String.concat ", "
                  (List.map Locald_analysis.Ast_rules.name
                     Locald_analysis.Ast_rules.all)));
          exit Shard.Exit.usage)
    names

let allow_test_opt =
  Arg.(
    value & opt_all string []
    & info [ "allow-test" ] ~docv:"RULE"
        ~doc:
          "Permit rule $(docv) in files under test/ (repeatable) — the \
           knob for deliberately-hostile test fixtures. Findings \
           elsewhere are unaffected.")

let findings_json_flag =
  Arg.(
    value & flag
    & info [ "json" ]
        ~doc:
          "Emit findings as JSON objects, one per line (file, line, col, \
           rule, severity, excerpt, help).")

let analyze_cmd =
  let module A = Locald_analysis.Ast_lint in
  let module R = Locald_analysis.Ast_rules in
  let run roots json sarif rule_names allow_test baseline write_baseline =
    let roots = scan_roots_arg roots in
    let rules =
      match rule_names with [] -> None | l -> Some (parse_rule_names l)
    in
    let test_allow = parse_rule_names allow_test in
    let findings = A.scan_tree ?rules ~test_allow roots in
    match write_baseline with
    | Some path ->
        A.Baseline.write path findings;
        Printf.printf "analyze: wrote %d baseline entr%s to %s\n"
          (List.length findings)
          (if List.length findings = 1 then "y" else "ies")
          path
    | None -> (
        let entries =
          match baseline with
          | None -> []
          | Some path -> (
              try A.Baseline.load path
              with Failure msg | Sys_error msg ->
                prerr_endline ("locald analyze: bad baseline: " ^ msg);
                exit Shard.Exit.usage)
        in
        let fresh = A.Baseline.subtract entries findings in
        let baselined = List.length findings - List.length fresh in
        if sarif then
          print_endline (Telemetry.Json.to_string (A.sarif fresh))
        else if json then
          List.iter
            (fun f ->
              print_endline (Telemetry.Json.to_string (A.finding_json f)))
            fresh
        else begin
          List.iter
            (fun f -> print_endline (Format.asprintf "%a" A.pp_finding f))
            fresh;
          let suffix =
            if baselined > 0 then Printf.sprintf ", %d baselined" baselined
            else ""
          in
          if fresh = [] then
            Printf.printf "analyze: clean (%s)%s\n" (String.concat " " roots)
              suffix
          else
            Printf.printf "analyze: %d finding(s)%s\n" (List.length fresh)
              suffix
        end;
        (* Unified exit codes: 0 clean, 2 findings, 124 usage. *)
        if fresh <> [] then exit Shard.Exit.incomplete)
  in
  let roots =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Files or directories to analyse (default: lib bench bin test \
             examples).")
  in
  let sarif_flag =
    Arg.(
      value & flag
      & info [ "sarif" ]
          ~doc:"Emit a SARIF 2.1.0 log on stdout (for code-scanning upload).")
  in
  let rule_opt =
    Arg.(
      value & opt_all string []
      & info [ "rule" ] ~docv:"RULE"
          ~doc:"Run only rule $(docv) (repeatable; default: all rules).")
  in
  let baseline_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE"
          ~doc:
            "Subtract the accepted findings in $(docv) (JSONL of \
             file/rule/excerpt; line-drift tolerant) before reporting \
             and gating.")
  in
  let write_baseline_opt =
    Arg.(
      value
      & opt (some string) None
      & info [ "write-baseline" ] ~docv:"FILE"
          ~doc:
            "Write every current finding to $(docv) as a baseline and \
             exit 0 (acceptance, not a gate).")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "AST-grounded static analysis: parses every .ml/.mli with the \
          compiler's parser and checks scope-resolved rules — \
          polymorphic compare/hash on graph payloads, naked .ids reads \
          that bypass the certifier's access monitor, Random.self_init, \
          raw memo key functions, domain-race captures, nondeterminism \
          sources (global Random, raw clocks, Hashtbl iteration feeding \
          digests) and checkpoint exception-safety. A file the parser \
          rejects is one parse-error finding. Exit 0 clean, 2 on \
          findings, 124 on usage errors.")
    Term.(
      const run $ roots $ findings_json_flag $ sarif_flag $ rule_opt
      $ allow_test_opt $ baseline_opt $ write_baseline_opt)

(* ------------------------------------------------------------------ *)
(* Inspection subcommands                                              *)
(* ------------------------------------------------------------------ *)

let machine_arg =
  let parse s =
    match s with
    | "walk" -> Ok (`Walk : [ `Walk | `Twofaced | `Zigzag | `Counter ])
    | "twofaced" -> Ok `Twofaced
    | "zigzag" -> Ok `Zigzag
    | "counter" -> Ok `Counter
    | _ -> Error (`Msg "machine must be walk | twofaced | zigzag | counter")
  in
  let print ppf m =
    Fmt.string ppf
      (match m with
      | `Walk -> "walk"
      | `Twofaced -> "twofaced"
      | `Zigzag -> "zigzag"
      | `Counter -> "counter")
  in
  Arg.conv (parse, print)

let machine_of kind ~steps ~output =
  match kind with
  | `Walk -> Locald_turing.Zoo.walk ~steps ~output
  | `Twofaced -> Locald_turing.Zoo.two_faced ~steps ~real:output ~fake:(1 - output)
  | `Zigzag -> Locald_turing.Zoo.zigzag ~half:(max 1 steps) ~output
  | `Counter -> Locald_turing.Zoo.binary_counter ~bits:(max 1 steps)

let gmr_cmd =
  let run kind steps output r cap dot =
    let machine = machine_of kind ~steps ~output in
    let config = { (Gmr.default_config ~r) with Gmr.fragment_cap = cap } in
    match Gmr.build ~config ~r machine with
    | Error _ ->
        prerr_endline "machine did not halt within the configured fuel";
        exit Shard.Exit.incomplete
    | Ok t ->
        Printf.printf
          "G(%s, %d): %d nodes, %d edges; table %dx%d; steps=%d output=%d; \
           %d fragments%s; local rules: %s\n"
          machine.Locald_turing.Machine.name r (Gmr.order t) (Gmr.size t)
          t.Gmr.table_side t.Gmr.table_side t.Gmr.steps t.Gmr.output
          (List.length t.Gmr.fragments)
          (if t.Gmr.truncated then " (enumeration capped)" else "")
          (match Gmr_check.first_violation t.Gmr.lg with
          | None -> "pass"
          | Some (v, reason) -> Printf.sprintf "FAIL at %d (%s)" v reason);
        if dot then
          print_string
            (Locald_graph.Dot.of_labelled ~pp_label:Gmr.pp_label t.Gmr.lg)
  in
  let steps =
    Arg.(value & opt int 3 & info [ "steps" ] ~doc:"Machine size parameter.")
  in
  let output =
    Arg.(value & opt int 0 & info [ "output" ] ~doc:"Machine output (0 or 1).")
  in
  let r = Arg.(value & opt int 1 & info [ "r" ] ~doc:"Locality parameter r.") in
  let cap =
    Arg.(value & opt int 200 & info [ "cap" ] ~doc:"Fragment enumeration cap.")
  in
  let dot = Arg.(value & flag & info [ "dot" ] ~doc:"Emit the graph in DOT form.") in
  let kind =
    Arg.(
      value
      & opt machine_arg `Twofaced
      & info [ "machine" ] ~doc:"Zoo machine: walk | twofaced | zigzag | counter.")
  in
  Cmd.v
    (Cmd.info "gmr" ~doc:"Build and inspect a G(M,r) instance.")
    Term.(const run $ kind $ steps $ output $ r $ cap $ dot)

let coverage_cmd =
  let run arity r t engine =
    ignore (resolve_engine engine : Locald_local.Backend.t option);
    let regime = Locald_local.Ids.f_linear_plus 1 in
    let p = { Tree_instances.regime; arity; r } in
    let c = Tree_deciders.coverage p ~t in
    Printf.printf
      "coverage (arity=%d, r=%d, t=%d, R(r)=%d): %d/%d view classes of T_r \
       occur in H_r%s\n"
      arity r t (Tree_instances.depth p) c.Tree_deciders.covered
      c.Tree_deciders.total_views
      (match c.Tree_deciders.uncovered_node with
      | None -> ""
      | Some v -> Printf.sprintf " (uncovered witness: node %d)" v)
  in
  let arity = Arg.(value & opt int 1 & info [ "arity" ] ~doc:"Tree arity.") in
  let r = Arg.(value & opt int 4 & info [ "r" ] ~doc:"Cone depth r.") in
  let t = Arg.(value & opt int 1 & info [ "t" ] ~doc:"View radius t.") in
  Cmd.v
    (Cmd.info "coverage"
       ~doc:"Measure Figure 1's view coverage for chosen parameters.")
    Term.(
      const run $ arity $ r $ t $ engine_term ~backend:false ())

let all_cmd =
  let run quick seed engine stats trace speedup =
    let backend = resolve_engine engine in
    apply_trace trace;
    let timing (x : Registry.experiment) =
      let run = x.e_run ?backend ~quick ~seed in
      let (print, _), wall = Timing.time run in
      print ();
      let t_speedup =
        (* Optional honest baseline: rerun the experiment on a
           single-domain pool and report the ratio. *)
        if speedup && Pool.default_jobs () > 1 then begin
          let jn = Pool.default_jobs () in
          Pool.set_default_jobs 1;
          let _, wall1 = Timing.time run in
          Pool.set_default_jobs jn;
          Some (wall1 /. wall)
        end
        else None
      in
      {
        Report.t_experiment = x.e_name;
        t_wall = wall;
        t_jobs = Pool.default_jobs ();
        t_speedup;
      }
    in
    Report.print_timings (List.map timing Registry.experiments);
    maybe_stats stats
  in
  let speedup_flag =
    Arg.(
      value & flag
      & info [ "speedup" ]
          ~doc:
            "Also rerun each experiment at --jobs 1 and report the \
             speedup (doubles the runtime).")
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment.")
    Term.(
      const run $ quick_flag $ seed_opt $ engine_term () $ stats_flag
      $ trace_opt $ speedup_flag)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let metrics_cmd =
  (* Every registered experiment, plus the certification run. *)
  let names =
    List.map (fun (x : Registry.experiment) -> x.e_name) Registry.experiments
    @ [ "certify" ]
  in
  let run name quick seed engine trace =
    let driver =
      match Registry.find_experiment name with
      | Some x -> fun backend -> fst (x.e_run ?backend ~quick ~seed ()) ()
      | None when name = "certify" ->
          fun backend ->
            Report.print_certify (Locald_core.Certify.run ~quick ?backend ())
      | None ->
          prerr_endline
            ("locald metrics: unknown experiment " ^ name ^ " (try: "
            ^ String.concat " | " names ^ ")");
          exit Shard.Exit.usage
    in
    let backend = resolve_engine engine in
    apply_trace trace;
    Telemetry.set_metrics true;
    Telemetry.new_run ();
    driver backend;
    print_endline "";
    print_endline "runtime metrics (this run):";
    Format.printf "%a@." Telemetry.pp_metrics ()
  in
  let experiment_arg =
    Arg.(
      value & pos 0 string "table1"
      & info [] ~docv:"EXPERIMENT"
          ~doc:
            (Printf.sprintf
               "Experiment to run under metric collection: %s (default \
                table1)."
               (String.concat " | " names)))
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Run one experiment with gauge and span-histogram collection \
          enabled and print the run's metrics (counters, gauges, span \
          timings). Combine with $(b,--trace) for the full event log.")
    Term.(
      const run $ experiment_arg $ quick_flag $ seed_opt $ engine_term ()
      $ trace_opt)

(* ------------------------------------------------------------------ *)
(* Sharded exhaustive runs                                             *)
(* ------------------------------------------------------------------ *)

let workload_opt =
  Arg.(
    value
    & opt string Sweeps.default_name
    & info [ "workload" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Sharded workload: %s."
             (String.concat " | " Sweeps.names)))

let lookup_workload name =
  match Sweeps.find name with
  | Some w -> w
  | None ->
      usage_error "unknown workload %s (try: %s)" name
        (String.concat " | " Sweeps.names)

let chunk_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "chunk" ] ~docv:"RANKS"
        ~doc:
          "Checkpoint chunk size in assignment ranks (default: the \
           workload's own). Must match across the shards of one run.")

let fsync_opt =
  Arg.(
    value & opt int 1
    & info [ "fsync-every" ] ~docv:"N"
        ~doc:
          "Checkpoint appends between fsync calls (default 1: sync \
           every chunk). Larger values trade crash-window for speed.")

let throttle_opt =
  Arg.(
    value & opt float 0.
    & info [ "throttle-ms" ] ~docv:"MS"
        ~doc:
          "Testing aid: hold each chunk for at least $(docv) \
           milliseconds, so kill/resume tests have time to interrupt a \
           run mid-shard. Results are unaffected.")

let plan_of ~w ~chunk ~shards =
  let g = w.Sweeps.w_geometry () in
  let chunk = Option.value chunk ~default:w.Sweeps.w_chunk in
  match Shard.plan ~total:g.Sweeps.g_total ~chunk ~shards () with
  | p -> p
  | exception Invalid_argument msg -> usage_error "%s" msg

let shard_cmd =
  let run workload index shards checkpoint resume chunk fsync_every throttle
      engine stats trace =
    let backend = resolve_engine engine in
    apply_trace trace;
    let w = lookup_workload workload in
    if shards <= 0 then usage_error "--of must be positive";
    if index < 0 || index >= shards then
      usage_error "--index %d outside [0, %d)" index shards;
    let plan = plan_of ~w ~chunk ~shards in
    let eval0 = w.Sweeps.w_eval ?backend () in
    let eval ~lo ~hi =
      if throttle > 0. then Unix.sleepf (throttle /. 1000.);
      eval0 ~lo ~hi
    in
    let (s, evaluated), wall =
      Timing.time (fun () ->
          Shard.run ?checkpoint ~resume ~fsync_every ~workload:w.Sweeps.w_name
            ~plan ~index ~eval ())
    in
    Printf.printf
      "shard %d/%d (%s): %d chunks (%d evaluated, %d restored), %d correct, \
       %d wrong, digest %s  [%.2fs]\n"
      s.Shard.s_index s.Shard.s_of w.Sweeps.w_name s.Shard.s_chunks evaluated
      (s.Shard.s_chunks - evaluated)
      s.Shard.s_correct s.Shard.s_wrong s.Shard.s_digest wall;
    maybe_stats stats
  in
  let index =
    Arg.(
      required
      & opt (some int) None
      & info [ "index" ] ~docv:"I" ~doc:"This shard's index, 0-based.")
  in
  let shards =
    Arg.(
      required
      & opt (some int) None
      & info [ "of" ] ~docv:"N" ~doc:"Total shard count of the run.")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Write crash-safe chunk checkpoints and the completion \
             marker under $(docv) (one JSONL file per shard).")
  in
  let resume =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Restore the checkpoint's valid prefix (chunk sequence and \
             digest chain verified) instead of recomputing it. Without \
             a matching checkpoint this is a fresh run.")
  in
  Cmd.v
    (Cmd.info "shard"
       ~doc:
         "Evaluate one shard of an exhaustive workload: the chunks of \
          assignment ranks owned by $(b,--index) under a deterministic \
          $(b,--of)-way partition, checkpointing each completed chunk.")
    Term.(
      const run $ workload_opt $ index $ shards $ checkpoint $ resume
      $ chunk_opt $ fsync_opt $ throttle_opt $ engine_term () $ stats_flag
      $ trace_opt)

(* Merge reporting shared by [merge] and [sweep]: print the folded
   result, return the process exit code per the README convention. *)
let report_merged ~json ~expect_digest merged =
  match merged with
  | Shard.Complete { m_correct; m_wrong; m_assignments; m_fail; m_digest } ->
      if json then
        print_endline
          (Telemetry.Json.to_string
             (Telemetry.Json.Obj
                [
                  ("status", Telemetry.Json.String "complete");
                  ("assignments", Telemetry.Json.Int m_assignments);
                  ("correct", Telemetry.Json.Int m_correct);
                  ("wrong", Telemetry.Json.Int m_wrong);
                  ( "first_failure",
                    match m_fail with
                    | None -> Telemetry.Json.Null
                    | Some r -> Telemetry.Json.Int r );
                  ("digest", Telemetry.Json.String m_digest);
                ]))
      else
        Printf.printf "merged: %d assignments, %d correct, %d wrong%s\ndigest %s\n"
          m_assignments m_correct m_wrong
          (match m_fail with
          | None -> ""
          | Some r -> Printf.sprintf " (first failure at rank %d)" r)
          m_digest;
      (match expect_digest with
      | Some d when d <> m_digest ->
          Printf.eprintf
            "locald: merged digest %s does not match expected %s\n" m_digest d;
          Shard.Exit.mismatch
      | _ -> Shard.Exit.ok)
  | Shard.Incomplete { mi_missing; mi_correct; mi_wrong; mi_covered; mi_assignments }
    ->
      let missing = String.concat ", " (List.map string_of_int mi_missing) in
      if json then
        print_endline
          (Telemetry.Json.to_string
             (Telemetry.Json.Obj
                [
                  ("status", Telemetry.Json.String "incomplete");
                  ( "missing_shards",
                    Telemetry.Json.List
                      (List.map (fun i -> Telemetry.Json.Int i) mi_missing) );
                  ("covered", Telemetry.Json.Int mi_covered);
                  ("assignments", Telemetry.Json.Int mi_assignments);
                  ("correct", Telemetry.Json.Int mi_correct);
                  ("wrong", Telemetry.Json.Int mi_wrong);
                ]))
      else
        Printf.printf
          "incomplete: missing shards [%s]; %d/%d ranks covered (%d correct, \
           %d wrong) — no digest for a partial result\n"
          missing mi_covered mi_assignments mi_correct mi_wrong;
      Shard.Exit.incomplete

(* Checkpoint-directory discovery for [merge]: the run's geometry is
   read back from whatever the directory holds (a completion summary
   preferably, else a checkpoint header), so merging needs no flags
   beyond the directory. *)
let scan_shard_indices dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      Array.to_list entries
      |> List.filter_map (fun e ->
             try
               Scanf.sscanf e "shard-%d.%s%!" (fun i rest ->
                   if rest = "jsonl" || rest = "done.json" then Some i
                   else None)
             with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
      |> List.sort_uniq compare

let discover_geometry ~dir indices =
  let from_done i =
    Option.bind (Checkpoint.read_done ~dir ~index:i) (fun j ->
        Option.map
          (fun s ->
            (s.Shard.s_workload, s.Shard.s_of, s.Shard.s_total, s.Shard.s_chunk))
          (Shard.summary_of_json j))
  in
  let from_header i =
    Option.map
      (fun (h, _) ->
        Checkpoint.(h.h_workload, h.h_of, h.h_total, h.h_chunk))
      (Checkpoint.load ~dir ~index:i)
  in
  let rec first f = function
    | [] -> None
    | i :: tl -> ( match f i with Some x -> Some x | None -> first f tl)
  in
  match first from_done indices with
  | Some g -> Some g
  | None -> first from_header indices

let json_flag =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"Print the merged result as one JSON object.")

let expect_digest_opt =
  Arg.(
    value
    & opt (some string) None
    & info [ "expect-digest" ] ~docv:"HEX"
        ~doc:
          "Fail (exit 3) unless the merged digest equals $(docv) — how \
           CI compares a sweep against the committed bench pin.")

let merge_cmd =
  let run dir json expect_digest =
    let indices = scan_shard_indices dir in
    if indices = [] then usage_error "no checkpoint data under %s" dir;
    match discover_geometry ~dir indices with
    | None -> usage_error "no readable checkpoint header under %s" dir
    | Some (wname, shards, total, chunk) ->
        let plan =
          match Shard.plan ~total ~chunk ~shards () with
          | p -> p
          | exception Invalid_argument msg -> usage_error "%s" msg
        in
        let summaries = Shard.read_summaries ~dir ~shards in
        (match Shard.merge ~workload:wname ~plan ~summaries with
        | Error msg ->
            prerr_endline ("locald merge: " ^ msg);
            exit Shard.Exit.mismatch
        | Ok merged -> exit (report_merged ~json ~expect_digest merged))
  in
  let dir =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"DIR" ~doc:"Checkpoint directory of a sharded run.")
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Fold the per-shard summaries in a checkpoint directory into \
          the exact unsharded result. Missing shards yield an honest \
          $(b,incomplete) report and exit 2, never a fabricated total.")
    Term.(const run $ dir $ json_flag $ expect_digest_opt)

(* OCaml's Sys signal numbers are internal (negative); name the ones a
   supervisor actually sees. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" s

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exit %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

let sweep_cmd =
  let run workload shards procs dir chunk fsync_every timeout max_retries
      retry_seed throttle expect_digest json engine trace =
    (* Flag errors end here, before any child is spawned. *)
    ignore (resolve_engine engine : Locald_local.Backend.t option);
    apply_trace trace;
    let w = lookup_workload workload in
    if shards <= 0 then usage_error "--of must be positive";
    if procs <= 0 then usage_error "--procs must be positive";
    if max_retries < 0 then usage_error "--max-retries must be >= 0";
    let plan = plan_of ~w ~chunk ~shards in
    (* Children get the engine flags but not --trace: each would
       truncate the supervisor's sink. *)
    let child_argv i =
      Array.of_list
        ([
           Sys.executable_name; "shard";
           "--workload"; w.Sweeps.w_name;
           "--index"; string_of_int i;
           "--of"; string_of_int shards;
           "--checkpoint"; dir;
           "--resume";
           "--chunk"; string_of_int plan.Shard.p_chunk;
           "--fsync-every"; string_of_int fsync_every;
         ]
        @ (if throttle > 0. then
             [ "--throttle-ms"; Printf.sprintf "%g" throttle ]
           else [])
        @ engine_argv engine)
    in
    let spawn i =
      let argv = child_argv i in
      Unix.create_process argv.(0) argv Unix.stdin Unix.stdout Unix.stderr
    in
    (* Deadlines are durations, not calendar stamps: the monotonic
       clock is immune to NTP steps mid-sweep. *)
    let now () = Timing.now () in
    let deadline_from t =
      match timeout with None -> infinity | Some s -> t +. s
    in
    (* Supervisor state: shards queue through [pending] (ready to
       start), [delayed] (waiting out a backoff), [running] (live
       child), and end in done or [failed]. Every requeue resumes from
       the checkpoint, so a retried shard repeats only the chunks the
       crash lost. *)
    let pending = Queue.create () in
    for i = 0 to shards - 1 do
      Queue.add (i, 0) pending
    done;
    let delayed = ref [] in
    let running = Hashtbl.create 8 in
    let failed = ref [] in
    let finished = ref 0 in
    while !finished + List.length !failed < shards do
      let t = now () in
      let ready, later = List.partition (fun (at, _, _) -> at <= t) !delayed in
      delayed := later;
      List.iter (fun (_, i, a) -> Queue.add (i, a) pending) ready;
      while Hashtbl.length running < procs && not (Queue.is_empty pending) do
        let i, attempt = Queue.pop pending in
        let pid = spawn i in
        Telemetry.event "sweep.spawn"
          [
            ("shard", Telemetry.Json.Int i);
            ("attempt", Telemetry.Json.Int attempt);
            ("pid", Telemetry.Json.Int pid);
          ];
        Printf.printf "sweep: shard %d started (pid %d%s)\n%!" i pid
          (if attempt > 0 then Printf.sprintf ", retry %d" attempt else "");
        Hashtbl.replace running pid (i, attempt, deadline_from (now ()))
      done;
      let timed_out = ref [] in
      Hashtbl.iter
        (fun pid (i, attempt, deadline) ->
          if now () > deadline then timed_out := (pid, i, attempt) :: !timed_out)
        running;
      List.iter
        (fun (pid, i, attempt) ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          Printf.printf "sweep: shard %d (pid %d) exceeded --timeout; killed\n%!"
            i pid;
          (* Stop re-killing while we wait to reap it. *)
          Hashtbl.replace running pid (i, attempt, infinity))
        !timed_out;
      let reaped = ref [] in
      Hashtbl.iter
        (fun pid _ ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _, status -> reaped := (pid, status) :: !reaped
          | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
              reaped := (pid, Unix.WEXITED 127) :: !reaped)
        running;
      List.iter
        (fun (pid, status) ->
          let i, attempt, _ = Hashtbl.find running pid in
          Hashtbl.remove running pid;
          Telemetry.event "shard.exit"
            [
              ("shard", Telemetry.Json.Int i);
              ("attempt", Telemetry.Json.Int attempt);
              ("status", Telemetry.Json.String (describe_status status));
            ];
          let ok =
            status = Unix.WEXITED 0 && Checkpoint.read_done ~dir ~index:i <> None
          in
          if ok then begin
            incr finished;
            Printf.printf "sweep: shard %d finished (%d/%d)\n%!" i !finished
              shards
          end
          else if attempt >= max_retries then begin
            failed := i :: !failed;
            Printf.printf
              "sweep: shard %d failed (%s); %d retries exhausted\n%!" i
              (describe_status status) max_retries
          end
          else begin
            let delay = Shard.backoff ~seed:retry_seed ~index:i ~attempt in
            Telemetry.event "shard.retry"
              [
                ("shard", Telemetry.Json.Int i);
                ("attempt", Telemetry.Json.Int attempt);
                ("delay_s", Telemetry.Json.Float delay);
              ];
            Printf.printf
              "sweep: shard %d died (%s); retrying in %.2fs (retry %d/%d)\n%!"
              i (describe_status status) delay (attempt + 1) max_retries;
            delayed := (now () +. delay, i, attempt + 1) :: !delayed
          end)
        !reaped;
      if !reaped = [] then Unix.sleepf 0.05
    done;
    let summaries = Shard.read_summaries ~dir ~shards in
    match Shard.merge ~workload:w.Sweeps.w_name ~plan ~summaries with
    | Error msg ->
        prerr_endline ("locald sweep: inconsistent summaries: " ^ msg);
        exit Shard.Exit.mismatch
    | Ok merged ->
        if !failed <> [] then
          Printf.printf "sweep: failed shards after retries: [%s]\n"
            (String.concat ", "
               (List.map string_of_int (List.sort compare !failed)));
        exit (report_merged ~json ~expect_digest merged)
  in
  let procs =
    Arg.(
      value & opt int 2
      & info [ "procs" ] ~docv:"K"
          ~doc:"Shard subprocesses to keep running at once (default 2).")
  in
  let shards =
    Arg.(
      required
      & opt (some int) None
      & info [ "of" ] ~docv:"N" ~doc:"Shard count to partition the run into.")
  in
  let dir =
    Arg.(
      value & opt string "locald-ckpt"
      & info [ "checkpoint" ] ~docv:"DIR"
          ~doc:
            "Checkpoint directory shared by the shard subprocesses \
             (default $(b,locald-ckpt)). A directory left by an \
             interrupted sweep of the same run is resumed, not redone.")
  in
  let timeout =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Kill (SIGKILL) any shard running longer than $(docv) \
             seconds; it is retried like a crash, resuming from its \
             checkpoint.")
  in
  let max_retries =
    Arg.(
      value & opt int 2
      & info [ "max-retries" ] ~docv:"R"
          ~doc:
            "Retries per shard before it is abandoned and the sweep \
             reports incomplete (default 2).")
  in
  let retry_seed =
    Arg.(
      value & opt int 0
      & info [ "retry-seed" ] ~docv:"SEED"
          ~doc:
            "Seed of the deterministic backoff jitter — the retry \
             schedule is reproducible from it.")
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Supervise a full sharded run: fork $(b,--of) shard \
          subprocesses ($(b,--procs) at a time), retry crashed or \
          timed-out shards with capped exponential backoff (resuming \
          their checkpoints), and merge. Exit 0 on a complete merge, 2 \
          if shards are missing after retries, 3 on a digest or \
          consistency mismatch.")
    Term.(
      const run $ workload_opt $ shards $ procs $ dir $ chunk_opt $ fsync_opt
      $ timeout $ max_retries $ retry_seed $ throttle_opt $ expect_digest_opt
      $ json_flag $ engine_term () $ trace_opt)

(* ------------------------------------------------------------------ *)
(* The decision service                                                *)
(* ------------------------------------------------------------------ *)

let socket_opt =
  Arg.(
    value & opt string "locald.sock"
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (default $(b,locald.sock)).")

let tcp_port_opt =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp-port" ] ~docv:"PORT"
        ~doc:"Also (serve) or instead (client) speak TCP on loopback \
              $(docv).")

let serve_cmd =
  let run socket tcp_port max_inflight max_engines memo_capacity deleted_memo
      engine trace =
    if deleted_memo <> None then
      usage_error "--memo was deleted: the decide cache has no off switch";
    if max_inflight < 1 then usage_error "--max-inflight must be positive";
    if max_engines < 1 then usage_error "--max-engines must be positive";
    if memo_capacity < 1 then usage_error "--memo-capacity must be positive";
    let backend = resolve_engine engine in
    apply_trace trace;
    (* Metrics on: the serve.request span then feeds the latency
       histograms a metrics request reports. *)
    Telemetry.set_metrics true;
    (* Replace the batch CLI's flush-and-redeliver handlers (installed
       in main below): re-delivery kills in-flight connections, which
       is precisely wrong for a daemon. Here the signal only flips the
       drain flag; the loop finishes what it owes and returns, and the
       normal exit path flushes the trace sink. *)
    let drain = Atomic.make false in
    let graceful = Sys.Signal_handle (fun _ -> Atomic.set drain true) in
    Sys.set_signal Sys.sigterm graceful;
    Sys.set_signal Sys.sigint graceful;
    let svc =
      Service.create ?backend ~max_engines ~memo_capacity ()
    in
    let listeners =
      Serve.listener_unix socket
      ::
      (match tcp_port with
      | Some port -> [ Serve.listener_tcp ~port () ]
      | None -> [])
    in
    (* The pool's width, capped at the host's cores, sizes the
       executor; the pool itself is never created. *)
    let jobs = Pool.default_jobs () in
    Printf.printf
      "serve: listening on %s%s (jobs %d, inflight <= %d, engines <= %d)\n%!"
      socket
      (match tcp_port with
      | Some port -> Printf.sprintf " and 127.0.0.1:%d" port
      | None -> "")
      jobs max_inflight max_engines;
    let stats =
      Serve.run ~max_inflight ~drain ~jobs ~listeners
        ~handlers:(Service.handlers svc) ()
    in
    (try Sys.remove socket with Sys_error _ -> ());
    Printf.printf
      "serve: drained — %d requests (%d busy, %d malformed) over %d \
       connections\n%!"
      stats.Serve.served stats.Serve.busy stats.Serve.malformed
      stats.Serve.connections;
    exit Shard.Exit.ok
  in
  let max_inflight =
    Arg.(
      value & opt int 64
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:
            "Bound on requests admitted and not yet answered (default \
             64): frames arriving past it are answered $(b,busy) \
             immediately instead of buffered without bound.")
  in
  let max_engines =
    Arg.(
      value & opt int Service.default_max_engines
      & info [ "max-engines" ] ~docv:"N"
          ~doc:
            "Bound on cached engines — (workload, backend) \
             prepared-view/decide-cache structures kept warm across \
             requests (default 8, LRU eviction).")
  in
  let memo_capacity =
    Arg.(
      value & opt int Service.default_memo_capacity
      & info [ "memo-capacity" ] ~docv:"N"
          ~doc:
            "Bound on each engine's decide-cache leaves (default \
             65536); reaching it drops the engine's whole cache. \
             Transparent to results.")
  in
  (* Without this hidden option cmdliner would read [--memo N], the
     deleted flag, as the unambiguous prefix of [--memo-capacity N]. *)
  let deleted_memo =
    Arg.(
      value
      & opt (some string) None
      & info [ "memo" ] ~docs:Manpage.s_none ~docv:"MODE")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived decision service: accept decide / certify / \
          metrics / shutdown requests as length-prefixed JSON frames \
          over a Unix-domain (and optionally TCP) socket. Engines and \
          their decide caches persist across requests; a request's \
          backend/seed/fifo override the startup default without \
          touching it. $(b,--jobs) N runs up to N requests at once, \
          each on one core: a single large request (a full-range \
          decide, certify) does not fan out. Each connection gets its \
          replies in request order. SIGTERM/SIGINT (or a shutdown \
          request) drain: in-flight requests are answered, then the \
          daemon exits 0.")
    Term.(
      const run $ socket_opt $ tcp_port_opt $ max_inflight $ max_engines
      $ memo_capacity $ deleted_memo $ engine_term () $ trace_opt)

let client_cmd =
  let run op socket tcp_port workload lo hi engine id =
    let req =
      Proto.request ?workload ?lo ?hi ~config:(engine_config engine) ~id op
    in
    let fd =
      match tcp_port with
      | Some port -> Proto.connect_tcp ~port ()
      | None -> Proto.connect_unix socket
    in
    Proto.write_frame fd (Proto.request_to_json req);
    match Proto.read_frame fd with
    | None ->
        prerr_endline "locald client: connection closed without a response";
        exit Shard.Exit.incomplete
    | Some json ->
        print_endline (Telemetry.Json.to_string json);
        let v = Proto.response_view json in
        if v.Proto.v_ok then exit Shard.Exit.ok
        else if v.Proto.v_busy then exit Shard.Exit.incomplete
        else exit Shard.Exit.mismatch
  in
  let op =
    let ops =
      [
        ("decide", Proto.Decide); ("certify", Proto.Certify);
        ("metrics", Proto.Metrics); ("ping", Proto.Ping);
        ("shutdown", Proto.Shutdown);
      ]
    in
    Arg.(
      required
      & pos 0 (some (enum ops)) None
      & info [] ~docv:"OP"
          ~doc:"One of $(b,decide), $(b,certify), $(b,metrics), \
                $(b,ping), $(b,shutdown).")
  in
  let workload =
    Arg.(
      value
      & opt (some string) None
      & info [ "workload" ] ~docv:"NAME"
          ~doc:"Sweep workload for $(b,decide) (default \
                $(b,exhaustive-decider)).")
  in
  let lo =
    Arg.(
      value
      & opt (some int) None
      & info [ "lo" ] ~docv:"RANK" ~doc:"Range start (default 0).")
  in
  let hi =
    Arg.(
      value
      & opt (some int) None
      & info [ "hi" ] ~docv:"RANK"
          ~doc:"Range end, exclusive (default: the whole rank space).")
  in
  let id =
    Arg.(
      value & opt int 0
      & info [ "id" ] ~docv:"N" ~doc:"Request id echoed in the response.")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "One request against a running $(b,locald serve): send a \
          frame, print the JSON response. Exit 0 on an ok response, 2 \
          on busy, 3 on an error response. $(b,--backend) / \
          $(b,--sched-seed) / $(b,--fifo) travel as per-request \
          configuration.")
    Term.(
      const run $ op $ socket_opt $ tcp_port_opt $ workload $ lo $ hi
      $ engine_term ~jobs:false () $ id)

let main =
  let doc =
    "Reproduction of `What can be decided locally without identifiers?' \
     (Fraigniaud, G\xC3\xB6\xC3\xB6s, Korman, Suomela; PODC 2013)"
  in
  Cmd.group
    (Cmd.info "locald" ~version:"1.0.0" ~doc)
    (experiment_cmds
    @ [
        certify_cmd; analyze_cmd; gmr_cmd; coverage_cmd; metrics_cmd;
        shard_cmd; merge_cmd; sweep_cmd; serve_cmd; client_cmd; all_cmd;
      ])

let () =
  (* SIGINT/SIGTERM flush the trace sink and any open checkpoint
     writers before the process dies by the signal — an interrupted
     shard loses nothing past its last chunk. *)
  Telemetry.install_signal_handlers ();
  exit (Cmd.eval main)

(* The benchmark's metric catalogue: the names, units and directions
   BENCHMARK.json declares (a test keeps the two equal). End-to-end
   metrics carry the share of the parent's median by which they may
   worsen before a change counts as a regression. *)

(* The workloads, each with why the benchmark runs it. *)
let workloads =
  [
    ( "coverage",
      "Tree_deciders.coverage on T_r, 32,767 nodes (pin af763916): view extraction, \
       canonicalisation and pool fan-out under minor-heap churn; bypasses runner, analysis, \
       serve" );
    ( "certify",
      "Analysis.certify of the LD decider over six G(M,1), 105,789 trace events (pin \
       03c1795c): trace monitor and TM-simulating decides, heavy promotion, no \
       canonicalisation" );
    ( "serve-hot",
      "locald serve under seeded Poisson load of small exhaustive-decider ranges whose memo \
       keys and configs stay cached: Proto framing, serve queueing, warm engine reads" );
    ( "serve-churn",
      "the same generator with ranges over all 40,320 ranks and async seeds cycling past the \
       8-engine cache: engine builds, LRU and memo eviction on the request path" );
  ]

type better = Lower | Higher

type metric = { name : string; unit : string; better : better; bound : float option }

let e name unit better bound = { name; unit; better; bound = Some bound }
let l name unit better = { name; unit; better; bound = None }

(* Reported by every workload with tracing off. The times are CPU
   seconds of the process doing the work: on a shared host, wall times
   move with the host's load far more (README.md), and they are
   printed beside these instead. CPU seconds at full width sum the
   work of every domain, so they also show work a change adds to one
   domain; the one-domain figure is printed, not gated, because it
   swings most with the host's load. Set-up has the largest bound. *)
let end_to_end =
  [ e "cpu_s" "s" Lower 0.25; e "setup_s" "s" Lower 0.25; e "peak_rss_mb" "MB" Lower 0.2 ]

(* Reported by every workload's traced run; zero where the workload
   does not reach the layer. *)
let per_layer =
  [
    l "view.extract_s" "s" Lower;
    l "view.extract_alloc_mw" "Mword" Lower;
    l "view.extractions" "count" Lower;
    l "canon.key_s" "s" Lower;
    l "canon.key_alloc_mw" "Mword" Lower;
    l "canon.hits" "count" Higher;
    l "canon.misses" "count" Lower;
    l "canon.fallback" "count" Lower;
    l "memo.hits" "count" Higher;
    l "memo.misses" "count" Lower;
    l "memo.distinct" "count" Lower;
    l "memo.hit_ratio" "ratio" Higher;
    l "memo.compute_s" "s" Lower;
    l "memo.evictions" "count" Lower;
    l "pool.jobs_effective" "count" Higher;
    l "pool.map_s" "s" Lower;
    l "pool.worker_s" "s" Lower;
    l "pool.idle_frac" "ratio" Lower;
    l "pool.serial_s" "s" Lower;
    l "pool.tasks" "count" Lower;
    l "pool.steals" "count" Lower;
    l "gc.minor_mw" "Mword" Lower;
    l "gc.promoted_mw" "Mword" Lower;
    l "gc.minor_collections" "count" Lower;
    l "gc.major_collections" "count" Lower;
    l "analysis.certify_s" "s" Lower;
    l "certify.probes" "count" Lower;
    l "trace.events" "count" Lower;
    l "runner.decides" "count" Lower;
    l "decider.range_s" "s" Lower;
    l "proto.encode_us" "us" Lower;
    l "proto.decode_us" "us" Lower;
    l "proto.bytes" "bytes" Lower;
    l "serve.service_ms" "ms" Lower;
    l "serve.wait_ms" "ms" Lower;
    l "serve.busy" "count" Lower;
    l "serve.requests" "count" Higher;
    l "service.engine_builds" "count" Lower;
    l "service.engine_evictions" "count" Lower;
    l "service.engine_build_ms" "ms" Lower;
    l "service.eval_ms" "ms" Lower;
    l "setup.instance_s" "s" Lower;
    l "setup.daemon_s" "s" Lower;
    l "setup.warm_s" "s" Lower;
    l "gen.late_ms" "ms" Lower;
    l "gen.sent" "count" Higher;
    l "trace.overhead_frac" "ratio" Lower;
  ]

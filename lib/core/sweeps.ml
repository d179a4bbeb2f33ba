(* Shardable exhaustive workloads: name -> (instance, decider,
   expectation, rank geometry), bridging the decision layer's
   range-restricted evaluator to the runtime's shard/checkpoint
   machinery.

   The contract a workload must honour: its rank space is the
   lexicographic injection order, its eval is a pure function of the
   rank range (so chunks recompute identically on retry/resume), and
   tiling [0, total) over eval reproduces exactly the unsharded
   [evaluate_exhaustive] counts and first-failure rank. *)

open Locald_graph
open Locald_local
open Locald_runtime
open Locald_decision

type geometry = { g_n : int; g_bound : int; g_total : int }

type workload = {
  w_name : string;
  w_description : string;
  w_expected : bool;
  w_chunk : int;
  w_geometry : unit -> geometry;
  w_eval :
    ?backend:Backend.t ->
    ?memo_capacity:int ->
    unit ->
    lo:int -> hi:int -> Shard.chunk_result;
  w_unsharded : ?backend:Backend.t -> unit -> Decider.evaluation;
}

let regime = Ids.f_linear_plus 1

(* A tree instance under the P decider. The instance is built lazily
   (the registry itself must stay cheap to construct) and shared by
   every workload and pin over it. *)
let tree_instance ~arity ~r ~apex =
  let params = { Tree_instances.regime; arity; r } in
  (lazy (Tree_instances.small_instance params ~apex), Tree_deciders.p_decider params)

(* H+ (arity 2, r = 2, apex (0,1)), expected accepted: 8 nodes, 40320
   assignments. [exhaustive-decider], [async-exhaustive] and both
   BENCH exhaustive-decider pins run it. *)
let h_plus = tree_instance ~arity:2 ~r:2 ~apex:(0, 1)

(* The reference unsharded run: every injective assignment into
   [0 .. bound-1] (default: the instance's own order). *)
let evaluate_tree ?backend ?bound ~name ~expected (lg, alg) =
  let lg = Lazy.force lg in
  let bound = Option.value bound ~default:(Labelled.order lg) in
  Decider.evaluate_exhaustive ?backend ~bound alg ~expected
    ~instance:name lg

(* A tree-instance workload: the P decider quantified over every
   injective assignment of the instance's nodes into [0 .. n-1]. *)
let tree_workload ?backend ~name ~description ~instance ~expected ~chunk () =
  let lg, alg = instance in
  let geometry () =
    let lg = Lazy.force lg in
    let n = Labelled.order lg in
    { g_n = n; g_bound = n; g_total = Orbit.perm ~bound:n ~k:n }
  in
  (* Per-request configuration: an explicit [?backend] overrides the
     workload's construction-time backend. *)
  let eval ?backend:req_backend ?memo_capacity () =
    let lg = Lazy.force lg in
    let n = Labelled.order lg in
    let backend =
      match req_backend with Some _ -> req_backend | None -> backend
    in
    let prep = Runner.prepare ?memo_capacity ?backend alg lg in
    fun ~lo ~hi ->
      let rv =
        Decider.evaluate_exhaustive_range ~prep ~bound:n ~lo ~hi alg ~expected
          lg
      in
      {
        Shard.r_correct = rv.Decider.rv_correct;
        r_wrong = rv.Decider.rv_wrong;
        r_fail = Option.map (fun (rank, _, _) -> rank) rv.Decider.rv_failure;
      }
  in
  let unsharded ?backend:req_backend () =
    let backend =
      match req_backend with Some _ -> req_backend | None -> backend
    in
    evaluate_tree ?backend ~name ~expected instance
  in
  {
    w_name = name;
    w_description = description;
    w_expected = expected;
    w_chunk = chunk;
    w_geometry = geometry;
    w_eval = eval;
    w_unsharded = unsharded;
  }

(* A Monte-Carlo curve workload: ranks are coin seeds, not id
   assignments. Rank [k] runs the Corollary 1 randomised decider with
   the seeded stream [Random.State.make [| k |]] on a fixed instance;
   correct means the verdict matched the instance's membership. On a
   no-instance the wrong count over [0 .. total) is the decider's
   (deterministic) empirical one-sided error, and the first
   wrongly-accepting seed is the workload's first-failure rank — so
   merge/resume consistency is exercised on a workload whose failures
   are real, not seeded corruption. *)
(* Same fragment cap as the bench's G(M,1) instance: keeps the
   construction a few hundred nodes, so the reference unsharded runs
   the digest-pin tests perform stay fast. *)
let gmr_config = { (Gmr.default_config ~r:1) with Gmr.fragment_cap = 100 }

let corollary1_workload ~name ~description ~machine ~expected ~total ~chunk ()
    =
  let built =
    lazy
      (match Gmr.build ~config:gmr_config ~r:1 machine with
      | Ok t -> t
      | Error _ ->
          invalid_arg ("sweeps: unbuildable G(M,1) for workload " ^ name))
  in
  let geometry () =
    let t = Lazy.force built in
    (* The "bound" of a seed-ranked workload is its seed space. *)
    { g_n = Gmr.order t; g_bound = total; g_total = total }
  in
  let verdict_at fast k =
    Verdict.accepts (Gmr_deciders.Fast.corollary1 fast (Random.State.make [| k |]))
  in
  (* Seed-ranked: there is no backend axis and no decide cache (the
     randomised decider neither extracts runner views nor memoises),
     so the per-request configuration is accepted and inert — the same
     workload name answers identically whatever config a serve request
     attaches. *)
  let eval ?backend:_ ?memo_capacity:_ () =
    let t = Lazy.force built in
    let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
    fun ~lo ~hi ->
      let correct = ref 0 and wrong = ref 0 and fail = ref None in
      for k = lo to hi - 1 do
        if verdict_at fast k = expected then incr correct
        else begin
          incr wrong;
          if !fail = None then fail := Some k
        end
      done;
      { Shard.r_correct = !correct; r_wrong = !wrong; r_fail = !fail }
  in
  let unsharded ?backend:_ () =
    let t = Lazy.force built in
    let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
    let correct = ref 0 and wrong = ref 0 in
    for k = 0 to total - 1 do
      if verdict_at fast k = expected then incr correct else incr wrong
    done;
    {
      Decider.instance = name;
      n = Gmr.order t;
      expected;
      assignments = total;
      correct = !correct;
      wrong = !wrong;
      failure = None;
    }
  in
  {
    w_name = name;
    w_description = description;
    w_expected = expected;
    w_chunk = chunk;
    w_geometry = geometry;
    w_eval = eval;
    w_unsharded = unsharded;
  }

(* A provenance-certification sweep: ranks are the nodes of a
   yes-instance G(M,1), and rank [v] traces the Theorem 2 LD decider
   on node [v]'s view under the access monitor (sequential assignment
   [0 .. n-1], as in {!Locald_analysis.certify}). Correct means the
   node accepted {e and} the trace witnessed an input-identifier read
   — the decider's declared Id-dependence, certified node by node. *)
let certify_gmr_workload ~name ~description ~machine ~chunk () =
  let built =
    lazy
      (match Gmr.build ~config:gmr_config ~r:1 machine with
      | Ok t -> t
      | Error _ ->
          invalid_arg ("sweeps: unbuildable G(M,1) for workload " ^ name))
  in
  let geometry () =
    let t = Lazy.force built in
    let n = Gmr.order t in
    { g_n = n; g_bound = n; g_total = n }
  in
  let node_ok lg ids ~radius decide v =
    let view = View.extract ~ids lg ~center:v ~radius in
    let input = match View.ids view with Some a -> a | None -> [||] in
    let out, tr =
      Locald_analysis.Trace.run ~input_ids:(fun a -> a == input) decide view
    in
    out && Locald_analysis.Trace.reads_input_ids tr
  in
  (* Node-ranked provenance traces under the access monitor: direct
     [View.extract], no backend axis and no decide cache — per-request
     configuration is accepted and inert, as for the curve workload. *)
  let eval ?backend:_ ?memo_capacity:_ () =
    let t = Lazy.force built in
    let lg = t.Gmr.lg in
    let n = Gmr.order t in
    let ids = Array.init n (fun i -> i) in
    let alg = Gmr_deciders.ld_decider () in
    fun ~lo ~hi ->
      let correct = ref 0 and wrong = ref 0 and fail = ref None in
      for v = lo to hi - 1 do
        if node_ok lg ids ~radius:alg.Algorithm.radius alg.Algorithm.decide v
        then incr correct
        else begin
          incr wrong;
          if !fail = None then fail := Some v
        end
      done;
      { Shard.r_correct = !correct; r_wrong = !wrong; r_fail = !fail }
  in
  let unsharded ?backend:_ () =
    let t = Lazy.force built in
    let lg = t.Gmr.lg in
    let n = Gmr.order t in
    let ids = Array.init n (fun i -> i) in
    let alg = Gmr_deciders.ld_decider () in
    let correct = ref 0 and wrong = ref 0 in
    for v = 0 to n - 1 do
      if node_ok lg ids ~radius:alg.Algorithm.radius alg.Algorithm.decide v
      then incr correct
      else incr wrong
    done;
    {
      Decider.instance = name;
      n;
      expected = true;
      assignments = n;
      correct = !correct;
      wrong = !wrong;
      failure = None;
    }
  in
  {
    w_name = name;
    w_description = description;
    w_expected = true;
    w_chunk = chunk;
    w_geometry = geometry;
    w_eval = eval;
    w_unsharded = unsharded;
  }

let all =
  [
    (* Its merged digest pins against BENCH_quick.json's
       exhaustive-decider entry, which {!exhaustive_decider} computes
       over the same instance and decider. *)
    tree_workload ~name:"exhaustive-decider"
      ~description:
        "P decider over every assignment of H+ (arity 2, r = 2) — the \
         BENCH_quick workload"
      ~instance:h_plus ~expected:true ~chunk:512 ();
    (* A second size for quick sharded smoke runs: the linear (arity
       1) cone, small enough that every shard finishes in
       milliseconds. *)
    tree_workload ~name:"exhaustive-decider-a1"
      ~description:
        "P decider over every assignment of the arity-1, r = 4 cone"
      ~instance:(tree_instance ~arity:1 ~r:4 ~apex:(0, 1))
      ~expected:true ~chunk:64 ();
    (* The same instance and rank space as exhaustive-decider, but the
       views come from the asynchronous message-passing backend — the
       merged digest must still equal the committed BENCH_quick pin
       (the backends are byte-identical), which the sweep smoke in CI
       asserts. *)
    tree_workload ~backend:(Backend.Async Async_runner.default_config)
      ~name:"async-exhaustive"
      ~description:
        "exhaustive-decider with views assembled by the async \
         message-passing backend — pinned to the same digest"
      ~instance:h_plus ~expected:true ~chunk:512 ();
    (* ROADMAP item 4 remainder: sweeps beyond exhaustive-decider. The
       Corollary 1 curve shards the seed space of the randomised
       decider on a no-instance (wrong = its one-sided error); the
       certify sweep shards per-node provenance certification of the
       Theorem 2 decider on a yes-instance. Both digests are pinned in
       test_shard.ml. *)
    corollary1_workload ~name:"corollary1-curve"
      ~description:
        "Corollary 1 randomised decider over 2048 seeded coin streams \
         on the no-instance G(two-faced real 1 fake 0, 1) — ranks are \
         seeds; wrong counts the one-sided error"
      ~machine:(Locald_turing.Zoo.two_faced ~steps:2 ~real:1 ~fake:0)
      ~expected:false ~total:2048 ~chunk:128 ();
    certify_gmr_workload ~name:"certify-gmr"
      ~description:
        "Theorem 2 LD decider traced per node of the yes-instance \
         G(two-faced real 0 fake 1, 1) — correct = accepted and \
         witnessed an input-identifier read"
      ~machine:(Locald_turing.Zoo.two_faced ~steps:2 ~real:0 ~fake:1)
      ~chunk:64 ();
  ]

let names = List.map (fun w -> w.w_name) all

let find name = List.find_opt (fun w -> w.w_name = name) all

let default_name = "exhaustive-decider"

let exhaustive_decider ?backend ?bound () =
  evaluate_tree ?backend ?bound ~name:default_name ~expected:true h_plus

let digest (e : Decider.evaluation) =
  Shard.result_digest ~correct:e.Decider.correct ~wrong:e.Decider.wrong
    ~assignments:e.Decider.assignments

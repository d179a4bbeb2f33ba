open Locald_local
open Locald_runtime

let decide ?backend alg lg ~ids =
  Verdict.of_outputs (Runner.run ?backend alg lg ~ids)

let decide_oblivious ob lg = Verdict.of_outputs (Runner.run_oblivious ob lg)

type evaluation = {
  instance : string;
  n : int;
  expected : bool;
  assignments : int;
  correct : int;
  wrong : int;
  failure : (Ids.t * Verdict.t) option;
}

(* Sampled assignments are drawn this many at a time before a batch is
   decided, and a rank range is split into sub-ranges this wide, one
   pool task each: enough to amortise the pool's dispatch and a task's
   scratch. *)
let tally_chunk = 512

(* A run accepts iff every node says yes (Section 1.2). A plain loop:
   it runs once per rank, and [Array.for_all]'s local closure would
   allocate. *)
let accepts (out : bool array) =
  let all = ref true in
  for v = 0 to Array.length out - 1 do
    all := !all && out.(v)
  done;
  !all

let evaluate ?backend ~rng ~regime ~assignments alg ~expected ~instance lg =
  if assignments < 0 then
    invalid_arg (Printf.sprintf "Decider.evaluate: %d assignments" assignments);
  Telemetry.span "decider.evaluate" @@ fun () ->
  let n = Locald_graph.Labelled.order lg in
  (* The ball structure is id-independent: extract every view once and
     only re-decorate per assignment (see Runner.prepare). The decide
     itself goes through the preparation's read-adaptive cache —
     transparent for the pure deciders this module is specified for. *)
  let prep = Runner.prepare ?backend alg lg in
  Telemetry.span "decider.tally" @@ fun () ->
  (* One pool task per assignment: its own Runner task and output
     array, which also carries the witness verdict. *)
  let outputs ids =
    let task = Runner.task prep in
    let out = Array.make n false in
    Runner.decide_all task (Ids.to_array ids) out;
    Runner.flush task;
    out
  in
  let correct = ref 0 and failure = ref None and drawn = ref 0 in
  while !drawn < assignments do
    (* Draw the batch in order — the sampling order must not depend on
       --jobs — then decide it in parallel. *)
    let batch =
      Array.init (min tally_chunk (assignments - !drawn)) (fun _ ->
          Ids.sample rng regime ~n)
    in
    Array.iteri
      (fun i out ->
        if accepts out = expected then incr correct
        else if !failure = None then
          failure := Some (batch.(i), Verdict.of_outputs out))
      (Pool.map outputs batch);
    drawn := !drawn + Array.length batch
  done;
  {
    instance;
    n;
    expected;
    assignments;
    correct = !correct;
    wrong = assignments - !correct;
    failure = !failure;
  }

(* Range-restricted exhaustive evaluation, for the sharded runs and the
   naive exhaustive loop: the assignments of lexicographic ranks
   [lo, hi) only, with the failure witness carrying its global rank so
   per-shard firsts merge into the global first by a minimum. Always
   the naive enumeration — the quotient scan decides the whole space at
   once and cannot be restricted to a rank interval — but through the
   same prepared views and decide cache, so decides repeat across
   chunks at cache cost. *)
type range_evaluation = {
  rv_lo : int;
  rv_hi : int;
  rv_correct : int;
  rv_wrong : int;
  rv_failure : (int * Ids.t * Verdict.t) option;
}

(* One pool task: ranks [lo, hi) walked in place. The first assignment
   is unranked once, every later one is its predecessor's in-place
   successor, and every node's output lands in one reused array, so a
   rank whose decides all hit the cache allocates nothing. The task's
   first failure is built from that array: no decide is repeated. *)
let walk_ranks prep ~bound ~n ~expected ~lo ~hi =
  let task = Runner.task prep in
  let ids = Orbit.unrank ~bound ~k:n lo in
  let used = Array.make bound false in
  Array.iter (fun id -> used.(id) <- true) ids;
  let out = Array.make n false in
  let correct = ref 0 and wrong = ref 0 and failure = ref None in
  for rank = lo to hi - 1 do
    if rank > lo then ignore (Orbit.next_injection ~bound ids used : bool);
    Runner.decide_all task ids out;
    if accepts out = expected then incr correct
    else begin
      incr wrong;
      if !failure = None then
        failure := Some (rank, Ids.of_array ids, Verdict.of_outputs out)
    end
  done;
  Runner.flush task;
  { rv_lo = lo; rv_hi = hi; rv_correct = !correct; rv_wrong = !wrong;
    rv_failure = !failure }

let evaluate_exhaustive_range ?prep ?backend ?memo_capacity ~bound ~lo ~hi alg
    ~expected lg =
  Telemetry.span "decider.evaluate_range" @@ fun () ->
  let n = Locald_graph.Labelled.order lg in
  let total = Orbit.perm ~bound ~k:n in
  if lo < 0 || hi < lo || hi > total then
    invalid_arg
      (Printf.sprintf
         "Decider.evaluate_exhaustive_range: range [%d,%d) outside [0,%d]" lo
         hi total);
  let prep =
    match prep with
    | Some p -> p
    | None -> Runner.prepare ?memo_capacity ?backend alg lg
  in
  (* Sub-ranges are fixed by [lo] alone and folded in rank order, so
     counts and the first failure are identical at any job count. *)
  let starts =
    Array.init ((hi - lo + tally_chunk - 1) / tally_chunk) (fun c ->
        lo + (c * tally_chunk))
  in
  let parts =
    Pool.map
      (fun lo ->
        walk_ranks prep ~bound ~n ~expected ~lo ~hi:(min hi (lo + tally_chunk)))
      starts
  in
  Array.fold_left
    (fun acc p ->
      {
        acc with
        rv_correct = acc.rv_correct + p.rv_correct;
        rv_wrong = acc.rv_wrong + p.rv_wrong;
        rv_failure =
          (match acc.rv_failure with None -> p.rv_failure | f -> f);
      })
    { rv_lo = lo; rv_hi = hi; rv_correct = 0; rv_wrong = 0; rv_failure = None }
    parts

(* Exhaustive evaluation through the ball-local quotient. By the
   locality correspondence a node's output under an assignment depends
   only on the restriction to its ball, so scanning each node's
   [perm ~bound ~k:(ball size)] injective restrictions decides the
   all-accept question over all [perm ~bound ~k:n] assignments:

     every assignment accepted  <=>  every node accepts every
                                     restriction of its ball

   (left-to-right because every restriction extends to a global
   assignment when [bound >= n], and right-to-left trivially). When
   the scan certifies all-accept, the tallies follow by arithmetic and
   are byte-identical to the naive loop's; any rejection instead falls
   back transparently to the naive loop — the range evaluator over
   every rank — whose decide cache the scan has already partly
   warmed. *)
let evaluate_exhaustive ?backend ?memo_capacity ~bound alg ~expected ~instance
    lg =
  Telemetry.span "decider.evaluate_exhaustive" @@ fun () ->
  let n = Locald_graph.Labelled.order lg in
  let prep = Runner.prepare ?memo_capacity ?backend alg lg in
  let assignments = Orbit.perm ~bound ~k:n in
  let naive () =
    let rv =
      evaluate_exhaustive_range ~prep ~bound ~lo:0 ~hi:assignments alg
        ~expected lg
    in
    {
      instance;
      n;
      expected;
      assignments;
      correct = rv.rv_correct;
      wrong = rv.rv_wrong;
      failure = Option.map (fun (_, ids, v) -> (ids, v)) rv.rv_failure;
    }
  in
  if n = 0 then naive ()
  else begin
    let all_accept = ref true in
    let v = ref 0 in
    let task = Runner.task prep in
    while !all_accept && !v < n do
      let node = !v in
      let k = Array.length (Runner.ball_of prep node) in
      (* Through the preparation's read-adaptive cache: each distinct
         behaviour of the decide on this ball is computed once, and
         restrictions that agree on the id slots it reads are trie
         walks. *)
      let scanned = ref 0 in
      all_accept :=
        Orbit.for_all_injections ~bound ~k (fun r ->
            incr scanned;
            Runner.decide task node r);
      Orbit.add_scanned !scanned;
      incr v
    done;
    Runner.flush task;
    if not !all_accept then naive ()
    else if expected then
      { instance; n; expected; assignments; correct = assignments; wrong = 0;
        failure = None }
    else
      (* Every assignment is wrong; the witness the naive loop would
         report is the first enumerated assignment, re-decided
         concretely (a memo hit) so the stored verdict is the real
         run's. *)
      let failure =
        if assignments = 0 then None
        else
          let first = Ids.injection_at ~n ~bound 0 in
          Some (first, Verdict.of_outputs (Runner.run_prepared prep ~ids:first))
      in
      { instance; n; expected; assignments; correct = 0; wrong = assignments;
        failure }
  end

let all_correct e = e.wrong = 0 && e.assignments > 0

(* ------------------------------------------------------------------ *)
(* Fault-injected decision                                             *)
(* ------------------------------------------------------------------ *)

let outcome_of_node = function
  | Fault_runner.Decided b -> Verdict.Outcome.of_bool b
  | Fault_runner.Unknown _ -> Verdict.Outcome.Unknown

let decide_faulty ~plan ?cost alg lg ~ids =
  let outcomes, stats = Fault_runner.run ~plan ?cost alg lg ~ids in
  (Verdict.of_outcomes (Array.map outcome_of_node outcomes), stats)

type fault_evaluation = {
  f_instance : string;
  f_n : int;
  f_expected : bool;
  f_runs : int;
  f_correct : int;
  f_wrong : int;
  f_degraded : int;
  f_unknown_nodes : int;
  f_dropped : int;
  f_crashed : int;
}

let evaluate_faulty ~rng ~regime ~runs ~plan ?cost alg ~expected ~instance lg =
  let n = Locald_graph.Labelled.order lg in
  let correct = ref 0
  and wrong = ref 0
  and degraded = ref 0
  and unknown_nodes = ref 0
  and dropped = ref 0
  and crashed = ref 0 in
  for k = 0 to runs - 1 do
    (* Each run gets a distinct (but reproducible) fault trace and a
       fresh identifier assignment. *)
    let plan_k = { plan with Faults.seed = plan.Faults.seed + k } in
    let ids = Ids.sample rng regime ~n in
    let d, stats = decide_faulty ~plan:plan_k ?cost alg lg ~ids in
    unknown_nodes := !unknown_nodes + List.length d.Verdict.unknowns;
    dropped := !dropped + stats.Fault_runner.dropped;
    crashed := !crashed + stats.Fault_runner.crashed;
    if Verdict.decisive d then
      if Verdict.accepts d.Verdict.verdict = expected then incr correct
      else incr wrong
    else incr degraded
  done;
  {
    f_instance = instance;
    f_n = n;
    f_expected = expected;
    f_runs = runs;
    f_correct = !correct;
    f_wrong = !wrong;
    f_degraded = !degraded;
    f_unknown_nodes = !unknown_nodes;
    f_dropped = !dropped;
    f_crashed = !crashed;
  }

let pp_fault_evaluation ppf e =
  Format.fprintf ppf
    "%-28s n=%-5d expect=%-4s %d/%d correct, %d wrong, %d degraded (%d unknown nodes)"
    e.f_instance e.f_n
    (if e.f_expected then "yes" else "no")
    e.f_correct e.f_runs e.f_wrong e.f_degraded e.f_unknown_nodes

let pp_evaluation ppf e =
  Format.fprintf ppf "%-28s n=%-6d expect=%-6s %d/%d assignments correct%s"
    e.instance e.n
    (if e.expected then "yes" else "no")
    e.correct e.assignments
    (if e.wrong = 0 then "" else Printf.sprintf "  (%d WRONG)" e.wrong)

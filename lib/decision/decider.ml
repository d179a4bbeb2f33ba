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

(* Assignments per parallel batch: big enough to amortise the pool's
   dispatch, small enough that the failure witness is found without
   deciding the whole id space. *)
let tally_chunk = 512

let tally ?prep ?backend ?(memo = Memo.Exact_ids) ~expected ~instance ~n
    assignments_seq alg lg =
  (* The ball structure is id-independent: extract every view once and
     only re-decorate per assignment (see Runner.prepare). The decide
     itself is memoised per (node, ball restriction) — transparent for
     the pure deciders this module is specified for. *)
  let prep =
    match prep with
    | Some p -> p
    | None -> Runner.prepare ~memo ?backend alg lg
  in
  Telemetry.span "decider.tally" @@ fun () ->
  let verdict_of ids = Verdict.of_outputs (Runner.run_prepared prep ~ids) in
  let correct = ref 0 and wrong = ref 0 and failure = ref None and total = ref 0 in
  let rec drain seq =
    (* Force up to [tally_chunk] assignments sequentially — the
       sampling / enumeration order must not depend on --jobs — then
       decide the batch in parallel. *)
    let buf = ref [] and len = ref 0 and rest = ref seq in
    let continue = ref true in
    while !continue && !len < tally_chunk do
      match !rest () with
      | Seq.Nil -> continue := false
      | Seq.Cons (ids, tl) ->
          buf := ids :: !buf;
          incr len;
          rest := tl
    done;
    let chunk = Array.of_list (List.rev !buf) in
    if Array.length chunk > 0 then begin
      let verdicts = Pool.map verdict_of chunk in
      Array.iteri
        (fun i verdict ->
          incr total;
          if Verdict.accepts verdict = expected then incr correct
          else begin
            incr wrong;
            if !failure = None then failure := Some (chunk.(i), verdict)
          end)
        verdicts;
      drain !rest
    end
  in
  drain assignments_seq;
  {
    instance;
    n;
    expected;
    assignments = !total;
    correct = !correct;
    wrong = !wrong;
    failure = !failure;
  }

let evaluate ?backend ?memo ~rng ~regime ~assignments alg ~expected ~instance
    lg =
  Telemetry.span "decider.evaluate" @@ fun () ->
  let n = Locald_graph.Labelled.order lg in
  let seq =
    Seq.init assignments (fun _ -> Ids.sample rng regime ~n)
  in
  tally ?backend ?memo ~expected ~instance ~n seq alg lg

(* Exhaustive evaluation through the ball-local quotient. By the
   locality correspondence a node's output under an assignment depends
   only on the restriction to its ball, so scanning each node's
   [perm ~bound ~k:(ball size)] injective restrictions decides the
   all-accept question over all [perm ~bound ~k:n] assignments:

     every assignment accepted  <=>  every node accepts every
                                     restriction of its ball

   (left-to-right because every restriction extends to a global
   assignment when [bound >= n] — enforced by [enumerate_injections] —
   and right-to-left trivially). When the scan certifies all-accept,
   the tallies follow by arithmetic and are byte-identical to the naive
   loop's; any rejection instead falls back transparently to the naive
   loop, whose memo table the scan has already partly warmed. *)
let evaluate_exhaustive ?(quotient = true) ?backend ?(memo = Memo.Exact_ids)
    ?memo_capacity ~bound alg ~expected ~instance lg =
  Telemetry.span "decider.evaluate_exhaustive" @@ fun () ->
  let n = Locald_graph.Labelled.order lg in
  let prep = Runner.prepare ~memo ?memo_capacity ?backend alg lg in
  let naive () =
    tally ~prep ~expected ~instance ~n
      (Ids.enumerate_injections ~n ~bound)
      alg lg
  in
  if (not quotient) || n = 0 then naive ()
  else begin
    let all_accept = ref true in
    let v = ref 0 in
    while !all_accept && !v < n do
      let k = Array.length (Runner.ball_of prep !v) in
      (* Read-adaptive scan: each distinct behaviour of the decide on
         this ball is computed once; restrictions that agree on the id
         slots the decide actually reads are trie lookups. *)
      let scan = Runner.restriction_scanner prep !v in
      let scanned = ref 0 in
      all_accept :=
        Orbit.for_all_injections ~bound ~k (fun r ->
            incr scanned;
            scan r);
      Orbit.add_scanned !scanned;
      incr v
    done;
    if not !all_accept then naive ()
    else begin
      let assignments = Orbit.perm ~bound ~k:n in
      if expected then
        {
          instance;
          n;
          expected;
          assignments;
          correct = assignments;
          wrong = 0;
          failure = None;
        }
      else
        (* Every assignment is wrong; the witness the naive loop would
           report is the first enumerated assignment, re-decided
           concretely (a memo hit) so the stored verdict is the real
           run's. *)
        let failure =
          match Ids.enumerate_injections ~n ~bound () with
          | Seq.Nil -> None
          | Seq.Cons (first, _) ->
              Some (first, Verdict.of_outputs (Runner.run_prepared prep ~ids:first))
        in
        {
          instance;
          n;
          expected;
          assignments;
          correct = 0;
          wrong = assignments;
          failure;
        }
    end
  end

(* Range-restricted exhaustive evaluation, for the sharded runs: the
   assignments of lexicographic ranks [lo, hi) only, with the failure
   witness carrying its global rank so per-shard firsts merge into the
   global first by a minimum. Always the naive enumeration — the
   quotient scan decides the whole space at once and cannot be
   restricted to a rank interval — but through the same prepared
   views and decide-once memo, so decides repeat across chunks at memo
   cost. *)
type range_evaluation = {
  rv_lo : int;
  rv_hi : int;
  rv_correct : int;
  rv_wrong : int;
  rv_failure : (int * Ids.t * Verdict.t) option;
}

let evaluate_exhaustive_range ?prep ?backend ?(memo = Memo.Exact_ids)
    ?memo_capacity ~bound ~lo ~hi alg ~expected lg =
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
    | None -> Runner.prepare ~memo ?memo_capacity ?backend alg lg
  in
  let verdict_of ids = Verdict.of_outputs (Runner.run_prepared prep ~ids) in
  let correct = ref 0 and wrong = ref 0 and failure = ref None in
  let rest = ref (Ids.enumerate_injections_from ~n ~bound ~start:lo) in
  let next_rank = ref lo in
  while !next_rank < hi do
    (* Same batching discipline as [tally]: force the chunk
       sequentially, decide it in parallel, so results are identical
       at any job count. *)
    let want = min tally_chunk (hi - !next_rank) in
    let buf = ref [] and got = ref 0 in
    while !got < want do
      match !rest () with
      | Seq.Nil -> assert false (* hi <= total bounds the stream *)
      | Seq.Cons (ids, tl) ->
          buf := ids :: !buf;
          incr got;
          rest := tl
    done;
    let chunk = Array.of_list (List.rev !buf) in
    let verdicts = Pool.map verdict_of chunk in
    Array.iteri
      (fun i verdict ->
        if Verdict.accepts verdict = expected then incr correct
        else begin
          incr wrong;
          if !failure = None then
            failure := Some (!next_rank + i, chunk.(i), verdict)
        end)
      verdicts;
    next_rank := !next_rank + want
  done;
  {
    rv_lo = lo;
    rv_hi = hi;
    rv_correct = !correct;
    rv_wrong = !wrong;
    rv_failure = !failure;
  }

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

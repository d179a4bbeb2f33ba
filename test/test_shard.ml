(* Sharded exhaustive runs: rank unranking, the chunk partition, the
   crash-safe checkpoint format (torn tails, corrupted records, header
   mismatches), kill-and-resume equivalence, and the merge's exactness
   — shard+merge must reproduce the unsharded digest byte-identically
   for any shard count, at any job count, interrupted or not. *)

open Locald_local
open Locald_runtime
open Locald_core

let check = Alcotest.check
let int = Alcotest.int
let string = Alcotest.string
let bool = Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Unranking                                                           *)
(* ------------------------------------------------------------------ *)

let test_unrank_matches_enumeration () =
  List.iter
    (fun (n, bound) ->
      let all = List.of_seq (Injections.all ~n ~bound) in
      List.iteri
        (fun rank ids ->
          check
            (Alcotest.array int)
            (Printf.sprintf "injection_at %d (n=%d bound=%d)" rank n bound)
            ids
            (Ids.to_array (Ids.injection_at ~n ~bound rank)))
        all;
      check int "total" (List.length all) (Orbit.perm ~bound ~k:n))
    [ (3, 5); (4, 4); (1, 6); (0, 3) ]

(* The range evaluator unranks a range's first assignment once and
   steps from there, so the in-place successor must agree with unrank
   at every rank, and say when the space runs out. *)
let test_next_injection_steps () =
  for bound = 0 to 7 do
    for k = 0 to bound do
      let total = Orbit.perm ~bound ~k in
      for rank = 0 to total - 1 do
        let r = Orbit.unrank ~bound ~k rank in
        let used = Array.make bound false in
        Array.iter (fun x -> used.(x) <- true) r;
        let stepped = Orbit.next_injection ~bound r used in
        let where = Printf.sprintf "rank %d (bound=%d k=%d)" rank bound k in
        if rank + 1 < total then begin
          check bool ("steps from " ^ where) true stepped;
          check (Alcotest.array int) ("successor of " ^ where)
            (Orbit.unrank ~bound ~k (rank + 1))
            r;
          check (Alcotest.array bool) ("used bitmap after " ^ where)
            (Array.init bound (fun x -> Array.mem x r))
            used
        end
        else check bool ("no successor of last " ^ where) false stepped
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* The chunk partition                                                 *)
(* ------------------------------------------------------------------ *)

let plan_tiles_exactly =
  QCheck.Test.make ~name:"plan: chunks tile [0,total), strided ownership"
    ~count:200
    QCheck.(triple (int_bound 5000) (int_range 1 600) (int_range 1 12))
    (fun (total, chunk, shards) ->
      let p = Shard.plan ~total ~chunk ~shards () in
      let chunks = Shard.chunk_count p in
      (* Ranges tile the space in order, without gaps or overlaps. *)
      let pos = ref 0 in
      for c = 0 to chunks - 1 do
        let lo, hi = Shard.range p c in
        if lo <> !pos || hi <= lo || hi > total then
          QCheck.Test.fail_reportf "chunk %d range [%d,%d) at pos %d" c lo hi
            !pos;
        pos := hi
      done;
      if total > 0 && !pos <> total then
        QCheck.Test.fail_reportf "tiling ends at %d, not %d" !pos total;
      (* Every chunk is owned by exactly the strided shard, and the
         per-shard chunk lists partition the chunk indices. *)
      let owned = Array.make chunks false in
      for i = 0 to shards - 1 do
        List.iter
          (fun c ->
            if Shard.owner p c <> i then
              QCheck.Test.fail_reportf "chunk %d listed by non-owner %d" c i;
            if owned.(c) then QCheck.Test.fail_reportf "chunk %d owned twice" c;
            owned.(c) <- true)
          (Shard.chunks_of p ~index:i)
      done;
      Array.for_all Fun.id owned
      &&
      (* ranks_of sums back to the whole space. *)
      List.init shards (fun i -> Shard.ranks_of p ~index:i)
      |> List.fold_left ( + ) 0 = total)

(* ------------------------------------------------------------------ *)
(* Synthetic shard runs: merge arithmetic without a decider            *)
(* ------------------------------------------------------------------ *)

(* A pure arithmetic eval — rank r is "wrong" iff r mod 7 = 3 — so the
   merge's count and first-failure folding is tested independently of
   the decision layer. *)
let synthetic_eval ~lo ~hi =
  let wrong = ref 0 and fail = ref None in
  for r = lo to hi - 1 do
    if r mod 7 = 3 then begin
      incr wrong;
      if !fail = None then fail := Some r
    end
  done;
  { Shard.r_correct = hi - lo - !wrong; r_wrong = !wrong; r_fail = !fail }

let synthetic_expected total =
  let wrong = ref 0 in
  for r = 0 to total - 1 do
    if r mod 7 = 3 then incr wrong
  done;
  (total - !wrong, !wrong)

let run_all_shards ?checkpoint ~workload ~plan () =
  List.init plan.Shard.p_shards (fun i ->
      let s, _ =
        Shard.run ?checkpoint ~workload ~plan ~index:i ~eval:synthetic_eval ()
      in
      (i, s))

let test_merge_synthetic () =
  let total = 1000 in
  List.iter
    (fun shards ->
      let plan = Shard.plan ~total ~chunk:64 ~shards () in
      let summaries = run_all_shards ~workload:"synthetic" ~plan () in
      match Shard.merge ~workload:"synthetic" ~plan ~summaries with
      | Error msg -> Alcotest.failf "merge error: %s" msg
      | Ok (Shard.Incomplete _) -> Alcotest.fail "unexpectedly incomplete"
      | Ok (Shard.Complete { m_correct; m_wrong; m_assignments; m_fail; _ }) ->
          let correct, wrong = synthetic_expected total in
          check int "assignments" total m_assignments;
          check int "correct" correct m_correct;
          check int "wrong" wrong m_wrong;
          check (Alcotest.option int) "first failure" (Some 3) m_fail)
    [ 1; 2; 4; 8; 13 ]

let test_merge_incomplete () =
  let plan = Shard.plan ~total:1000 ~chunk:64 ~shards:4 () in
  let summaries =
    run_all_shards ~workload:"synthetic" ~plan ()
    |> List.filter (fun (i, _) -> i <> 2)
  in
  match Shard.merge ~workload:"synthetic" ~plan ~summaries with
  | Error msg -> Alcotest.failf "merge error: %s" msg
  | Ok (Shard.Complete _) -> Alcotest.fail "merge fabricated a total"
  | Ok (Shard.Incomplete { mi_missing; mi_covered; mi_assignments; _ }) ->
      check (Alcotest.list int) "missing shards" [ 2 ] mi_missing;
      check int "assignments" 1000 mi_assignments;
      check int "covered" (1000 - Shard.ranks_of plan ~index:2) mi_covered

let test_merge_rejects_foreign_summary () =
  let plan = Shard.plan ~total:1000 ~chunk:64 ~shards:2 () in
  let summaries = run_all_shards ~workload:"synthetic" ~plan () in
  let poisoned =
    List.map
      (fun (i, s) ->
        if i = 1 then (i, { s with Shard.s_workload = "other" }) else (i, s))
      summaries
  in
  match Shard.merge ~workload:"synthetic" ~plan ~summaries:poisoned with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "merge accepted a summary from another workload"

(* ------------------------------------------------------------------ *)
(* Real workload: sharding merges to the unsharded digest              *)
(* ------------------------------------------------------------------ *)

let a1 =
  match Sweeps.find "exhaustive-decider-a1" with
  | Some w -> w
  | None -> assert false

let with_jobs jobs f =
  let before = Pool.default_jobs () in
  Pool.set_default_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_default_jobs before) f

let test_shard_merge_equals_unsharded () =
  let g = a1.Sweeps.w_geometry () in
  let reference = Sweeps.digest (a1.Sweeps.w_unsharded ()) in
  List.iter
    (fun jobs ->
      with_jobs jobs @@ fun () ->
      List.iter
        (fun shards ->
          let plan =
            Shard.plan ~total:g.Sweeps.g_total ~chunk:a1.Sweeps.w_chunk ~shards
              ()
          in
          let eval = a1.Sweeps.w_eval () in
          let summaries =
            List.init shards (fun i ->
                let s, _ =
                  Shard.run ~workload:a1.Sweeps.w_name ~plan ~index:i ~eval ()
                in
                (i, s))
          in
          match Shard.merge ~workload:a1.Sweeps.w_name ~plan ~summaries with
          | Ok (Shard.Complete { m_digest; _ }) ->
              check string
                (Printf.sprintf "digest at shards=%d jobs=%d" shards jobs)
                reference m_digest
          | Ok (Shard.Incomplete _) -> Alcotest.fail "incomplete"
          | Error msg -> Alcotest.failf "merge error: %s" msg)
        [ 1; 2; 4; 8 ])
    [ 1; 4 ]

(* The two registry additions beyond the exhaustive-decider family:
   the Corollary 1 seed curve and the certify-gmr provenance sweep.
   Their merged digests are pinned — a change to the G(M,1)
   construction, the randomised decider's coin usage, or the trace
   monitor shows up here as a digest break, the same contract
   BENCH_quick.json enforces for the tree workloads. *)
let pinned_workloads =
  [
    ("corollary1-curve", "b53164b966c5906154c84dd5233364b1");
    ("certify-gmr", "eae2a273f859df2a33e8d80eefd3d806");
  ]

let test_new_workload_digest_pins () =
  List.iter
    (fun (name, pin) ->
      let w =
        match Sweeps.find name with
        | Some w -> w
        | None -> Alcotest.failf "workload %s not registered" name
      in
      let e = w.Sweeps.w_unsharded () in
      check string
        (Printf.sprintf "%s unsharded digest pin" name)
        pin (Sweeps.digest e);
      check int
        (Printf.sprintf "%s zero wrong" name)
        0 e.Locald_decision.Decider.wrong;
      let g = w.Sweeps.w_geometry () in
      List.iter
        (fun shards ->
          let plan =
            Shard.plan ~total:g.Sweeps.g_total ~chunk:w.Sweeps.w_chunk ~shards
              ()
          in
          let eval = w.Sweeps.w_eval () in
          let summaries =
            List.init shards (fun i ->
                let s, _ =
                  Shard.run ~workload:name ~plan ~index:i ~eval ()
                in
                (i, s))
          in
          match Shard.merge ~workload:name ~plan ~summaries with
          | Ok (Shard.Complete { m_digest; _ }) ->
              check string
                (Printf.sprintf "%s merged digest at shards=%d" name shards)
                pin m_digest
          | Ok (Shard.Incomplete _) -> Alcotest.fail "incomplete"
          | Error msg -> Alcotest.failf "merge error: %s" msg)
        [ 1; 3 ])
    pinned_workloads

(* ------------------------------------------------------------------ *)
(* Checkpoint files: torn tails, corruption, resume                    *)
(* ------------------------------------------------------------------ *)

let dir_counter = ref 0

let fresh_dir () =
  incr dir_counter;
  Printf.sprintf "ckpt-test-%d" !dir_counter

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
    (fun () -> f dir)

let truncate_file path k =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let keep = min k len in
  let content = really_input_string ic keep in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let file_size path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  close_in ic;
  len

let simulate_crash ~dir ~index ~at =
  (* A crash leaves no completion marker and possibly a torn tail. *)
  let done_p = Checkpoint.done_path ~dir ~index in
  if Sys.file_exists done_p then Sys.remove done_p;
  truncate_file (Checkpoint.file_path ~dir ~index) at

let test_load_drops_torn_tail () =
  with_dir @@ fun dir ->
  let plan = Shard.plan ~total:1000 ~chunk:64 ~shards:2 () in
  let _s, _ =
    Shard.run ~checkpoint:dir ~workload:"synthetic" ~plan ~index:0
      ~eval:synthetic_eval ()
  in
  let path = Checkpoint.file_path ~dir ~index:0 in
  let full =
    match Checkpoint.load ~dir ~index:0 with
    | Some (_, chunks) -> List.length chunks
    | None -> Alcotest.fail "no checkpoint written"
  in
  check int "all chunks recorded" (List.length (Shard.chunks_of plan ~index:0))
    full;
  (* Chop the last 3 bytes off: the final record no longer parses and
     must be dropped; everything before it survives. *)
  truncate_file path (file_size path - 3);
  (match Checkpoint.load ~dir ~index:0 with
  | Some (_, chunks) -> check int "torn tail dropped" (full - 1) (List.length chunks)
  | None -> Alcotest.fail "prefix unreadable after torn tail");
  (* Chop into the header: the whole file is void. *)
  truncate_file path 5;
  check bool "header torn -> no checkpoint" true
    (Checkpoint.load ~dir ~index:0 = None)

let test_resume_after_truncation_at_any_offset () =
  (* The central crash-safety property: whatever byte the file is cut
     at — mid-line included — resume recomputes exactly the lost ranks
     and the final digest is byte-identical to an uninterrupted run. *)
  let plan = Shard.plan ~total:1000 ~chunk:64 ~shards:2 () in
  let reference =
    let s, _ =
      Shard.run ~workload:"synthetic" ~plan ~index:0 ~eval:synthetic_eval ()
    in
    s.Shard.s_digest
  in
  let rng = Random.State.make [| 0xC4A5; 42 |] in
  for _trial = 1 to 12 do
    with_dir @@ fun dir ->
    let _ =
      Shard.run ~checkpoint:dir ~workload:"synthetic" ~plan ~index:0
        ~eval:synthetic_eval ()
    in
    let size = file_size (Checkpoint.file_path ~dir ~index:0) in
    let cut = Random.State.int rng (size + 1) in
    simulate_crash ~dir ~index:0 ~at:cut;
    let s, evaluated =
      Shard.run ~checkpoint:dir ~resume:true ~workload:"synthetic" ~plan
        ~index:0 ~eval:synthetic_eval ()
    in
    check string
      (Printf.sprintf "digest after cut at byte %d" cut)
      reference s.Shard.s_digest;
    let chunks = List.length (Shard.chunks_of plan ~index:0) in
    if evaluated < 0 || evaluated > chunks then
      Alcotest.failf "evaluated %d of %d chunks" evaluated chunks;
    check bool "done marker restored" true
      (Checkpoint.read_done ~dir ~index:0 <> None)
  done

let test_resume_rejects_corrupt_middle_record () =
  with_dir @@ fun dir ->
  let plan = Shard.plan ~total:1000 ~chunk:64 ~shards:1 () in
  let reference, _ =
    Shard.run ~checkpoint:dir ~workload:"synthetic" ~plan ~index:0
      ~eval:synthetic_eval ()
  in
  (* Corrupt the second chunk record's counts, keeping the line valid
     JSON: the digest chain must catch it and recompute from there. *)
  let path = Checkpoint.file_path ~dir ~index:0 in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let lines = List.rev !lines in
  let target = List.nth lines 2 (* header, chunk 0, chunk 1 *) in
  let corrupted =
    Str.global_replace (Str.regexp_string "\"correct\": 55") "\"correct\": 54"
      target
  in
  let corrupted =
    if corrupted = target then
      (* counts differ per chunk; flip whatever digit follows the key *)
      Str.replace_first (Str.regexp "\"correct\": [0-9]") "\"correct\": 0"
        target
    else corrupted
  in
  check bool "record actually altered" true (corrupted <> target);
  let oc = open_out path in
  List.iteri
    (fun i line ->
      output_string oc (if i = 2 then corrupted else line);
      output_char oc '\n')
    lines;
  close_out oc;
  Sys.remove (Checkpoint.done_path ~dir ~index:0);
  let s, evaluated =
    Shard.run ~checkpoint:dir ~resume:true ~workload:"synthetic" ~plan ~index:0
      ~eval:synthetic_eval ()
  in
  check string "digest recovered" reference.Shard.s_digest s.Shard.s_digest;
  let chunks = List.length (Shard.chunks_of plan ~index:0) in
  (* Chunk 0 restores; the corrupted record and everything after it
     recompute. *)
  check int "recomputed from the corruption" (chunks - 1) evaluated

let test_resume_discards_mismatched_header () =
  with_dir @@ fun dir ->
  let plan64 = Shard.plan ~total:1000 ~chunk:64 ~shards:2 () in
  let _ =
    Shard.run ~checkpoint:dir ~workload:"synthetic" ~plan:plan64 ~index:0
      ~eval:synthetic_eval ()
  in
  (* Same directory, different chunking: the old file must not be
     trusted. *)
  let plan32 = Shard.plan ~total:1000 ~chunk:32 ~shards:2 () in
  let s, evaluated =
    Shard.run ~checkpoint:dir ~resume:true ~workload:"synthetic" ~plan:plan32
      ~index:0 ~eval:synthetic_eval ()
  in
  let fresh, _ =
    Shard.run ~workload:"synthetic" ~plan:plan32 ~index:0 ~eval:synthetic_eval
      ()
  in
  check string "fresh run despite stale checkpoint" fresh.Shard.s_digest
    s.Shard.s_digest;
  check int "nothing restored"
    (List.length (Shard.chunks_of plan32 ~index:0))
    evaluated

let test_resume_of_finished_shard_is_noop () =
  with_dir @@ fun dir ->
  let plan = Shard.plan ~total:1000 ~chunk:64 ~shards:2 () in
  let first, _ =
    Shard.run ~checkpoint:dir ~workload:"synthetic" ~plan ~index:1
      ~eval:synthetic_eval ()
  in
  let again, evaluated =
    Shard.run ~checkpoint:dir ~resume:true ~workload:"synthetic" ~plan ~index:1
      ~eval:synthetic_eval ()
  in
  check string "same digest" first.Shard.s_digest again.Shard.s_digest;
  check int "zero chunks recomputed" 0 evaluated

let test_resumed_real_workload_digest () =
  (* The same property on the real decider workload, interrupted at a
     byte chosen mid-file, at both job counts. *)
  let g = a1.Sweeps.w_geometry () in
  let plan =
    Shard.plan ~total:g.Sweeps.g_total ~chunk:a1.Sweeps.w_chunk ~shards:2 ()
  in
  let eval = a1.Sweeps.w_eval () in
  let reference =
    let s, _ = Shard.run ~workload:a1.Sweeps.w_name ~plan ~index:0 ~eval () in
    s.Shard.s_digest
  in
  List.iter
    (fun jobs ->
      with_jobs jobs @@ fun () ->
      with_dir @@ fun dir ->
      let _ =
        Shard.run ~checkpoint:dir ~workload:a1.Sweeps.w_name ~plan ~index:0
          ~eval ()
      in
      let size = file_size (Checkpoint.file_path ~dir ~index:0) in
      simulate_crash ~dir ~index:0 ~at:(size / 2);
      let s, _ =
        Shard.run ~checkpoint:dir ~resume:true ~workload:a1.Sweeps.w_name ~plan
          ~index:0 ~eval ()
      in
      check string
        (Printf.sprintf "resumed digest at jobs=%d" jobs)
        reference s.Shard.s_digest)
    [ 1; 4 ]

(* ------------------------------------------------------------------ *)
(* Summaries round-trip; backoff policy                                *)
(* ------------------------------------------------------------------ *)

let test_summary_roundtrip_and_read () =
  with_dir @@ fun dir ->
  let plan = Shard.plan ~total:1000 ~chunk:64 ~shards:3 () in
  let summaries = run_all_shards ~checkpoint:dir ~workload:"synthetic" ~plan () in
  let read = Shard.read_summaries ~dir ~shards:3 in
  check int "all summaries present" 3 (List.length read);
  List.iter
    (fun (i, s) ->
      match List.assoc_opt i read with
      | None -> Alcotest.failf "summary %d missing" i
      | Some r ->
          check string "digest round-trips" s.Shard.s_digest r.Shard.s_digest;
          check int "counts round-trip" s.Shard.s_correct r.Shard.s_correct)
    summaries

(* The bench JSON writer refuses to run while checkpoint writers are
   open, and its refusal names the open files — so the registry must
   expose exactly the live writers' paths, in open order, and forget
   them on close. *)
let test_active_writer_paths () =
  with_dir @@ fun dir ->
  check
    (Alcotest.list string)
    "no writers open" []
    (Checkpoint.active_writer_paths ());
  let header i =
    {
      Checkpoint.h_workload = "synthetic";
      h_index = i;
      h_of = 2;
      h_total = 100;
      h_chunk = 10;
    }
  in
  let w0 = Checkpoint.create ~dir (header 0) in
  let w1 = Checkpoint.create ~dir (header 1) in
  (* close is idempotent, so the guard only matters when a check below
     fails — without it the leaked writers would poison later tests
     through the global registry. *)
  Fun.protect ~finally:(fun () ->
      Checkpoint.close w0;
      Checkpoint.close w1)
  @@ fun () ->
  check
    (Alcotest.list string)
    "both paths, oldest first"
    [ Checkpoint.file_path ~dir ~index:0; Checkpoint.file_path ~dir ~index:1 ]
    (Checkpoint.active_writer_paths ());
  check int "count agrees" 2 (Checkpoint.active_writers ());
  Checkpoint.close w0;
  check
    (Alcotest.list string)
    "closed writer forgotten"
    [ Checkpoint.file_path ~dir ~index:1 ]
    (Checkpoint.active_writer_paths ());
  Checkpoint.close w1;
  check (Alcotest.list string) "all closed" []
    (Checkpoint.active_writer_paths ())

let test_backoff_deterministic_and_capped () =
  for index = 0 to 5 do
    for attempt = 0 to 9 do
      let d1 = Shard.backoff ~seed:7 ~index ~attempt in
      let d2 = Shard.backoff ~seed:7 ~index ~attempt in
      check (Alcotest.float 0.0) "deterministic" d1 d2;
      if d1 <= 0.0 || d1 > 8.0 *. 1.25 then
        Alcotest.failf "backoff %f out of (0, 10] at attempt %d" d1 attempt
    done
  done;
  (* The exponential base grows until the cap. *)
  let base a = Shard.backoff ~seed:0 ~index:0 ~attempt:a in
  check bool "grows before the cap" true (base 4 > base 0)

let () =
  Alcotest.run "shard"
    [
      ( "unrank",
        [
          Alcotest.test_case "matches enumeration order" `Quick
            test_unrank_matches_enumeration;
          Alcotest.test_case "next_injection steps to rank + 1" `Quick
            test_next_injection_steps;
        ] );
      ( "plan",
        [ QCheck_alcotest.to_alcotest plan_tiles_exactly ] );
      ( "merge",
        [
          Alcotest.test_case "synthetic counts and first failure" `Quick
            test_merge_synthetic;
          Alcotest.test_case "missing shard -> Incomplete" `Quick
            test_merge_incomplete;
          Alcotest.test_case "foreign summary -> Error" `Quick
            test_merge_rejects_foreign_summary;
          Alcotest.test_case "sharding reproduces unsharded digest" `Slow
            test_shard_merge_equals_unsharded;
          Alcotest.test_case "corollary1/certify workload digest pins" `Slow
            test_new_workload_digest_pins;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "torn tail dropped on load" `Quick
            test_load_drops_torn_tail;
          Alcotest.test_case "resume after truncation at any offset" `Slow
            test_resume_after_truncation_at_any_offset;
          Alcotest.test_case "corrupt middle record recomputed" `Quick
            test_resume_rejects_corrupt_middle_record;
          Alcotest.test_case "mismatched header discarded" `Quick
            test_resume_discards_mismatched_header;
          Alcotest.test_case "resume of finished shard is a no-op" `Quick
            test_resume_of_finished_shard_is_noop;
          Alcotest.test_case "resumed real workload digest" `Slow
            test_resumed_real_workload_digest;
          Alcotest.test_case "active writer paths tracked" `Quick
            test_active_writer_paths;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "summaries round-trip" `Quick
            test_summary_roundtrip_and_read;
          Alcotest.test_case "backoff deterministic and capped" `Quick
            test_backoff_deterministic_and_capped;
        ] );
    ]

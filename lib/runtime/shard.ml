(* Deterministic sharding over rank spaces: strided chunk partition,
   checkpointed per-shard folds, and an exact merge.

   Invariants the whole layer leans on:

   - Chunk [c] covers ranks [c*chunk, min total ((c+1)*chunk)) and
     belongs to shard [c mod shards]. Pure arithmetic — any process
     can compute any shard's chunk list without communicating.
   - A shard folds its chunks in increasing chunk order, so its digest
     chain (and therefore its checkpoint's valid prefix) is a function
     of the workload alone, not of scheduling.
   - Merging is exact, not statistical: counts add, the first-failure
     rank is a minimum over global ranks, and the merged digest is the
     bench formula over the merged counts — byte-identical to an
     unsharded run's. *)

module Json = Telemetry.Json

type plan = { p_total : int; p_chunk : int; p_shards : int }

let invalid fmt = Format.kasprintf invalid_arg fmt

let plan ~total ?(chunk = 512) ~shards () =
  if total < 0 then invalid "Shard.plan: negative total %d" total;
  if chunk <= 0 then invalid "Shard.plan: non-positive chunk size %d" chunk;
  if shards <= 0 then invalid "Shard.plan: non-positive shard count %d" shards;
  { p_total = total; p_chunk = chunk; p_shards = shards }

let chunk_count p = (p.p_total + p.p_chunk - 1) / p.p_chunk

let range p c =
  if c < 0 || c >= chunk_count p then
    invalid "Shard.range: chunk %d outside [0,%d)" c (chunk_count p);
  (c * p.p_chunk, min p.p_total ((c + 1) * p.p_chunk))

let owner p c =
  if c < 0 || c >= chunk_count p then
    invalid "Shard.owner: chunk %d outside [0,%d)" c (chunk_count p);
  c mod p.p_shards

let chunks_of p ~index =
  if index < 0 || index >= p.p_shards then
    invalid "Shard.chunks_of: shard %d outside [0,%d)" index p.p_shards;
  let rec go c acc =
    if c >= chunk_count p then List.rev acc else go (c + p.p_shards) (c :: acc)
  in
  go index []

let ranks_of p ~index =
  List.fold_left
    (fun acc c ->
      let lo, hi = range p c in
      acc + hi - lo)
    0 (chunks_of p ~index)

(* ------------------------------------------------------------------ *)
(* Chunk results and digests                                           *)
(* ------------------------------------------------------------------ *)

type chunk_result = { r_correct : int; r_wrong : int; r_fail : int option }

let digest_init = Digest.to_hex (Digest.string Checkpoint.schema)

let digest_fold prev ~chunk r =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%d|%s" prev chunk r.r_correct r.r_wrong
          (match r.r_fail with None -> "-" | Some rk -> string_of_int rk)))

(* The one Marshal+MD5 digest every pinned result goes through. *)
let digest x = Digest.to_hex (Digest.string (Marshal.to_string x []))

(* The whole point is that a merged sweep pins against the committed
   BENCH_quick.json entry of the same workload. *)
let result_digest ~correct ~wrong ~assignments =
  digest (correct, wrong, assignments)

(* ------------------------------------------------------------------ *)
(* Per-shard execution                                                 *)
(* ------------------------------------------------------------------ *)

type summary = {
  s_workload : string;
  s_index : int;
  s_of : int;
  s_total : int;
  s_chunk : int;
  s_chunks : int;
  s_correct : int;
  s_wrong : int;
  s_fail : int option;
  s_digest : string;
}

let summary_json s =
  Json.Obj
    [
      ("schema", Json.String Checkpoint.schema);
      ("workload", Json.String s.s_workload);
      ("index", Json.Int s.s_index);
      ("of", Json.Int s.s_of);
      ("total", Json.Int s.s_total);
      ("chunk", Json.Int s.s_chunk);
      ("chunks", Json.Int s.s_chunks);
      ("correct", Json.Int s.s_correct);
      ("wrong", Json.Int s.s_wrong);
      ("fail", match s.s_fail with None -> Json.Null | Some r -> Json.Int r);
      ("digest", Json.String s.s_digest);
    ]

let summary_of_json j =
  let int k = match Json.member k j with Some (Json.Int i) -> Some i | _ -> None in
  let str k =
    match Json.member k j with Some (Json.String s) -> Some s | _ -> None
  in
  match
    ( str "schema",
      str "workload",
      int "index",
      int "of",
      int "total",
      int "chunk",
      int "chunks",
      int "correct",
      int "wrong",
      str "digest" )
  with
  | ( Some schema,
      Some workload,
      Some index,
      Some of_,
      Some total,
      Some chunk,
      Some chunks,
      Some correct,
      Some wrong,
      Some digest )
    when schema = Checkpoint.schema ->
      Some
        {
          s_workload = workload;
          s_index = index;
          s_of = of_;
          s_total = total;
          s_chunk = chunk;
          s_chunks = chunks;
          s_correct = correct;
          s_wrong = wrong;
          s_fail =
            (match Json.member "fail" j with
            | Some (Json.Int r) -> Some r
            | _ -> None);
          s_digest = digest;
        }
  | _ -> None

let read_summaries ~dir ~shards =
  List.filter_map
    (fun index ->
      match Checkpoint.read_done ~dir ~index with
      | None -> None
      | Some j -> (
          match summary_of_json j with
          | Some s -> Some (index, s)
          | None -> None))
    (List.init shards Fun.id)

let run ?checkpoint ?(resume = false) ~workload ~plan:p
    ~index ~eval () =
  let chunks = chunks_of p ~index in
  let header =
    {
      Checkpoint.h_workload = workload;
      h_index = index;
      h_of = p.p_shards;
      h_total = p.p_total;
      h_chunk = p.p_chunk;
    }
  in
  let writer, restored =
    match checkpoint with
    | None -> (None, [])
    | Some dir ->
        if resume then
          let w, cs = Checkpoint.resume ~dir header in
          (Some (dir, w), cs)
        else (Some (dir, Checkpoint.create ~dir header), [])
  in
  (* Validate the restored prefix: records must follow this shard's
     chunk sequence with the right ranges and an intact digest chain.
     The first inconsistency ends the trusted prefix — everything
     after it is recomputed, never guessed. *)
  let valid_prefix =
    let rec go acc digest expect (restored : Checkpoint.chunk list) =
      match (expect, restored) with
      | _, [] | [], _ :: _ -> List.rev acc
      | e :: etl, r :: rtl ->
          let lo, hi = range p e in
          let res =
            { r_correct = r.Checkpoint.c_correct;
              r_wrong = r.c_wrong;
              r_fail = r.c_fail }
          in
          let d = digest_fold digest ~chunk:e res in
          if r.c_chunk = e && r.c_lo = lo && r.c_hi = hi && r.c_digest = d
          then go ((e, res, d) :: acc) d etl rtl
          else List.rev acc
    in
    go [] digest_init chunks restored
  in
  Telemetry.event "shard.start"
    [
      ("workload", Json.String workload);
      ("index", Json.Int index);
      ("of", Json.Int p.p_shards);
      ("chunks", Json.Int (List.length chunks));
      ("restored", Json.Int (List.length valid_prefix));
    ];
  let correct = ref 0
  and wrong = ref 0
  and fail = ref None
  and digest = ref digest_init in
  let fold res d =
    correct := !correct + res.r_correct;
    wrong := !wrong + res.r_wrong;
    (* Chunks arrive in increasing rank order, so the first recorded
       failure is the shard's minimal failing rank. *)
    if !fail = None then fail := res.r_fail;
    digest := d
  in
  List.iter (fun (_, res, d) -> fold res d) valid_prefix;
  let evaluated = ref 0 in
  let skip = List.length valid_prefix in
  (* The writer must be closed on every exit path: an exception from
     [eval] mid-loop would otherwise leak the descriptor and drop the
     buffered tail of the very records a crashed shard needs for
     [--resume]. *)
  Fun.protect
    ~finally:(fun () -> Option.iter (fun (_, w) -> Checkpoint.close w) writer)
    (fun () ->
      List.iteri
        (fun i c ->
          if i >= skip then begin
            let lo, hi = range p c in
            let res = eval ~lo ~hi in
            let d = digest_fold !digest ~chunk:c res in
            Option.iter
              (fun (_, w) ->
                Checkpoint.append w
                  {
                    Checkpoint.c_chunk = c;
                    c_lo = lo;
                    c_hi = hi;
                    c_correct = res.r_correct;
                    c_wrong = res.r_wrong;
                    c_fail = res.r_fail;
                    c_digest = d;
                  };
                Telemetry.event "shard.ckpt"
                  [
                    ("chunk", Json.Int c); ("lo", Json.Int lo);
                    ("hi", Json.Int hi);
                  ])
              writer;
            incr evaluated;
            fold res d
          end)
        chunks);
  let summary =
    {
      s_workload = workload;
      s_index = index;
      s_of = p.p_shards;
      s_total = p.p_total;
      s_chunk = p.p_chunk;
      s_chunks = List.length chunks;
      s_correct = !correct;
      s_wrong = !wrong;
      s_fail = !fail;
      s_digest = !digest;
    }
  in
  Option.iter
    (fun (dir, _) ->
      Checkpoint.mark_done ~dir ~index (summary_json summary))
    writer;
  (summary, !evaluated)

(* ------------------------------------------------------------------ *)
(* Merge                                                               *)
(* ------------------------------------------------------------------ *)

type merged =
  | Complete of {
      m_correct : int;
      m_wrong : int;
      m_assignments : int;
      m_fail : int option;
      m_digest : string;
    }
  | Incomplete of {
      mi_missing : int list;
      mi_correct : int;
      mi_wrong : int;
      mi_covered : int;
      mi_assignments : int;
    }

let merge ~workload ~plan:p ~summaries =
  let err fmt = Format.kasprintf Result.error fmt in
  let slot = Array.make p.p_shards None in
  let rec place = function
    | [] -> Ok ()
    | (index, s) :: tl ->
        if index < 0 || index >= p.p_shards then
          err "summary for shard %d outside [0,%d)" index p.p_shards
        else if s.s_index <> index then
          err "summary at slot %d claims index %d" index s.s_index
        else if s.s_workload <> workload then
          err "shard %d ran workload %s, expected %s" index s.s_workload
            workload
        else if
          s.s_of <> p.p_shards || s.s_total <> p.p_total
          || s.s_chunk <> p.p_chunk
        then
          err
            "shard %d geometry (of=%d total=%d chunk=%d) disagrees with the \
             plan (of=%d total=%d chunk=%d)"
            index s.s_of s.s_total s.s_chunk p.p_shards p.p_total p.p_chunk
        else if s.s_chunks <> List.length (chunks_of p ~index) then
          err "shard %d reports %d chunks, expected %d" index s.s_chunks
            (List.length (chunks_of p ~index))
        else begin
          match slot.(index) with
          | Some prev when prev <> s ->
              err "conflicting summaries for shard %d" index
          | _ ->
              slot.(index) <- Some s;
              place tl
        end
  in
  Result.bind (place summaries) @@ fun () ->
  let missing = ref [] and correct = ref 0 and wrong = ref 0 in
  let covered = ref 0 in
  let fail = ref None in
  Array.iteri
    (fun index -> function
      | None -> missing := index :: !missing
      | Some s ->
          correct := !correct + s.s_correct;
          wrong := !wrong + s.s_wrong;
          covered := !covered + ranks_of p ~index;
          (match s.s_fail with
          | Some r when (match !fail with None -> true | Some m -> r < m) ->
              fail := Some r
          | _ -> ()))
    slot;
  match List.rev !missing with
  | [] ->
      if !correct + !wrong <> p.p_total then
        err "merged tallies (%d + %d) do not cover the %d assignments"
          !correct !wrong p.p_total
      else
        Ok
          (Complete
             {
               m_correct = !correct;
               m_wrong = !wrong;
               m_assignments = p.p_total;
               m_fail = !fail;
               m_digest =
                 result_digest ~correct:!correct ~wrong:!wrong
                   ~assignments:p.p_total;
             })
  | missing ->
      Ok
        (Incomplete
           {
             mi_missing = missing;
             mi_correct = !correct;
             mi_wrong = !wrong;
             mi_covered = !covered;
             mi_assignments = p.p_total;
           })

(* ------------------------------------------------------------------ *)
(* Supervision policy                                                  *)
(* ------------------------------------------------------------------ *)

let backoff ~seed ~index ~attempt =
  let base = 0.25 *. (2. ** float_of_int (max 0 (min attempt 5))) in
  let capped = Float.min base 8.0 in
  (* Deterministic jitter: reproducible from the sweep seed, distinct
     across shards and attempts so simultaneous crashers fan out. *)
  let h = Hashtbl.hash (seed, index, attempt) in
  capped +. (float_of_int (h land 0xFFFF) /. 65536.0 *. 0.25 *. capped)

module Exit = struct
  let ok = 0
  let incomplete = 2
  let mismatch = 3
  let usage = 124
end

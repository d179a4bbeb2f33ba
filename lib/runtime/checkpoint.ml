(* Crash-safe per-shard checkpoints: an append-only JSONL file per
   shard plus an atomically-renamed completion marker.

   Crash model: the process can die at any instruction (the sweep
   supervisor SIGKILLs overrunning shards). Consequences handled here:

   - A torn final line (the write was cut mid-record): [load] stops at
     the first unparseable line; [resume] truncates the file back to
     the valid prefix so appended records never follow garbage.
   - Lost tail: every append is fsync'd before it returns, so at most
     the record being written is lost; its chunk is simply recomputed.
   - A crash between "all chunks recorded" and "marker renamed": the
     marker is missing, so the shard reads as incomplete and a resume
     replays nothing but the final summary. The rename itself is
     atomic, so a reader never sees a half-written summary.

   Writers register a flush-and-sync hook with [Telemetry.on_shutdown]
   so SIGINT/SIGTERM persist the tail before the process re-delivers
   the signal to itself. *)

module Json = Telemetry.Json

let schema = "locald-ckpt/1"

type header = {
  h_workload : string;
  h_index : int;
  h_of : int;
  h_total : int;
  h_chunk : int;
}

type chunk = {
  c_chunk : int;
  c_lo : int;
  c_hi : int;
  c_correct : int;
  c_wrong : int;
  c_fail : int option;
  c_digest : string;
}

let file_path ~dir ~index = Filename.concat dir (Printf.sprintf "shard-%d.jsonl" index)

let done_path ~dir ~index =
  Filename.concat dir (Printf.sprintf "shard-%d.done.json" index)

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)
(* ------------------------------------------------------------------ *)

let header_json h =
  Json.Obj
    [
      ("ev", Json.String "ckpt-header");
      ("schema", Json.String schema);
      ("workload", Json.String h.h_workload);
      ("index", Json.Int h.h_index);
      ("of", Json.Int h.h_of);
      ("total", Json.Int h.h_total);
      ("chunk", Json.Int h.h_chunk);
    ]

let chunk_json c =
  Json.Obj
    [
      ("ev", Json.String "chunk");
      ("i", Json.Int c.c_chunk);
      ("lo", Json.Int c.c_lo);
      ("hi", Json.Int c.c_hi);
      ("correct", Json.Int c.c_correct);
      ("wrong", Json.Int c.c_wrong);
      ("fail", match c.c_fail with None -> Json.Null | Some r -> Json.Int r);
      ("digest", Json.String c.c_digest);
    ]

let int_member k j =
  match Json.member k j with Some (Json.Int i) -> Some i | _ -> None

let string_member k j =
  match Json.member k j with Some (Json.String s) -> Some s | _ -> None

let header_of_json j =
  match
    ( string_member "ev" j,
      string_member "schema" j,
      string_member "workload" j,
      int_member "index" j,
      int_member "of" j,
      int_member "total" j,
      int_member "chunk" j )
  with
  | Some "ckpt-header", Some s, Some w, Some i, Some o, Some t, Some c
    when s = schema ->
      Some { h_workload = w; h_index = i; h_of = o; h_total = t; h_chunk = c }
  | _ -> None

let chunk_of_json j =
  match
    ( string_member "ev" j,
      int_member "i" j,
      int_member "lo" j,
      int_member "hi" j,
      int_member "correct" j,
      int_member "wrong" j,
      string_member "digest" j )
  with
  | Some "chunk", Some i, Some lo, Some hi, Some correct, Some wrong,
    Some digest ->
      let fail =
        match Json.member "fail" j with
        | Some (Json.Int r) -> Some r
        | _ -> None
      in
      Some
        {
          c_chunk = i;
          c_lo = lo;
          c_hi = hi;
          c_correct = correct;
          c_wrong = wrong;
          c_fail = fail;
          c_digest = digest;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reading: the valid prefix                                           *)
(* ------------------------------------------------------------------ *)

(* Parse the file line by line, tracking the byte offset just past the
   last line that parsed as a record. A torn tail — a cut line, or any
   later corruption — fails [Json.of_string] or the field extraction
   and ends the prefix. A final line without its newline can still
   parse (the write completed, only the newline was cut); it is kept,
   and resume's truncate-then-append restores the newline discipline
   because [load_prefix] reports the offset past its last byte. *)
let load_prefix path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
      let result =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () ->
            let parse_line line =
              match Json.of_string line with
              | j -> Some j
              | exception Json.Parse_error _ -> None
            in
            match input_line ic with
            | exception End_of_file -> None
            | first -> (
                match Option.bind (parse_line first) header_of_json with
                | None -> None
                | Some h ->
                    let chunks = ref [] in
                    let valid = ref (pos_in ic) in
                    (try
                       let continue = ref true in
                       while !continue do
                         match input_line ic with
                         | exception End_of_file -> continue := false
                         | line -> (
                             match Option.bind (parse_line line) chunk_of_json with
                             | Some c ->
                                 chunks := c :: !chunks;
                                 valid := pos_in ic
                             | None -> continue := false)
                       done
                     with Sys_error _ -> ());
                    Some (h, List.rev !chunks, !valid)))
      in
      result

let load ~dir ~index =
  Option.map
    (fun (h, cs, _) -> (h, cs))
    (load_prefix (file_path ~dir ~index))

(* ------------------------------------------------------------------ *)
(* Writers                                                             *)
(* ------------------------------------------------------------------ *)

type writer = {
  w_fd : Unix.file_descr;
  w_path : string;
  w_oc : out_channel;
  mutable w_closed : bool;
  w_lock : Mutex.t;
}

(* Registry of open writers, so the signal-time shutdown hook (and the
   bench guard) can see them. The hook is registered once. *)
let writers : writer list ref = ref []

let writers_lock = Mutex.create ()

let register w =
  Mutex.lock writers_lock;
  writers := w :: !writers;
  Mutex.unlock writers_lock

let unregister w =
  Mutex.lock writers_lock;
  writers := List.filter (fun x -> x != w) !writers;
  Mutex.unlock writers_lock

let active_writers () =
  Mutex.lock writers_lock;
  let n = List.length !writers in
  Mutex.unlock writers_lock;
  n

(* Oldest-opened first, so refusal messages read in open order. *)
let active_writer_paths () =
  Mutex.lock writers_lock;
  let ps = List.rev_map (fun w -> w.w_path) !writers in
  Mutex.unlock writers_lock;
  ps

let sync w =
  flush w.w_oc;
  try Unix.fsync w.w_fd with Unix.Unix_error _ -> ()

let flush_all () =
  Mutex.lock writers_lock;
  let ws = !writers in
  Mutex.unlock writers_lock;
  List.iter
    (fun w ->
      Mutex.lock w.w_lock;
      if not w.w_closed then (try sync w with Sys_error _ -> ());
      Mutex.unlock w.w_lock)
    ws

let hook_registered = Atomic.make false

let ensure_hook () =
  if not (Atomic.exchange hook_registered true) then
    Telemetry.on_shutdown flush_all

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let writer_of_fd ~path fd =
  {
    w_fd = fd;
    w_path = path;
    w_oc = Unix.out_channel_of_descr fd;
    w_closed = false;
    w_lock = Mutex.create ();
  }

let output_record w j =
  output_string w.w_oc (Json.to_string j);
  output_char w.w_oc '\n';
  sync w

let create ~dir header =
  mkdir_p dir;
  ensure_hook ();
  (* A fresh attempt invalidates any previous completion claim. *)
  (try Sys.remove (done_path ~dir ~index:header.h_index)
   with Sys_error _ -> ());
  let path = file_path ~dir ~index:header.h_index in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let w = writer_of_fd ~path fd in
  output_record w (header_json header);
  register w;
  w

let resume ~dir header =
  let path = file_path ~dir ~index:header.h_index in
  match load_prefix path with
  | Some (h, chunks, valid_bytes) when h = header ->
      mkdir_p dir;
      ensure_hook ();
      (try Sys.remove (done_path ~dir ~index:header.h_index)
       with Sys_error _ -> ());
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
      (* Drop the torn tail before appending: the file must never hold
         garbage in its middle. *)
      Unix.ftruncate fd valid_bytes;
      ignore (Unix.lseek fd 0 Unix.SEEK_END);
      let w = writer_of_fd ~path fd in
      register w;
      (w, chunks)
  | _ ->
      (* Missing, unreadable, or written under a different geometry:
         a resume of nothing is a fresh start. *)
      (create ~dir header, [])

let append w c =
  Mutex.lock w.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_lock)
    (fun () ->
      if w.w_closed then invalid_arg "Checkpoint.append: writer is closed";
      output_record w (chunk_json c))

let close w =
  Mutex.lock w.w_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_lock)
    (fun () ->
      if not w.w_closed then begin
        sync w;
        close_out_noerr w.w_oc;
        w.w_closed <- true
      end);
  unregister w

(* ------------------------------------------------------------------ *)
(* Completion markers                                                  *)
(* ------------------------------------------------------------------ *)

let mark_done ~dir ~index summary =
  mkdir_p dir;
  let final = done_path ~dir ~index in
  let tmp = Filename.concat dir (Printf.sprintf ".shard-%d.done.tmp" index) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let oc = Unix.out_channel_of_descr fd in
  output_string oc (Json.to_string summary);
  output_char oc '\n';
  flush oc;
  (try Unix.fsync fd with Unix.Unix_error _ -> ());
  close_out_noerr oc;
  (* The atomic step: a reader sees the old state or the whole new
     summary, never a prefix. *)
  Unix.rename tmp final

let read_done ~dir ~index =
  match open_in_bin (done_path ~dir ~index) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | exception End_of_file -> None
          | line -> (
              match Json.of_string line with
              | j -> Some j
              | exception Json.Parse_error _ -> None))

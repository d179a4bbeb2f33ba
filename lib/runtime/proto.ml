(* Wire protocol of the locald decision service: length-prefixed JSON
   frames carrying typed request/response messages.

   A frame is a 4-byte big-endian payload length followed by exactly
   that many bytes of JSON (one value, no trailing bytes — the same
   strictness as [Telemetry.Json.of_string]). Two failure levels are
   distinguished, because they demand different recoveries:

   - {e Corrupt}: the framing itself is broken (a length prefix past
     [max_frame]). Nothing after it can be trusted — the byte stream
     has lost synchronisation — so the connection must close after an
     error response.
   - {e Garbage}: a well-framed payload that does not parse (including
     over-deep nesting, which [Json.of_string]'s depth bound turns
     into a clean [Parse_error] instead of a stack overflow). Framing
     is intact, so the server answers with an error response and keeps
     the connection.

   The typed layer speaks in strings for the backend: this module sits
   in [lib/runtime], below [lib/local], so it cannot name [Backend.t] —
   and the wire shouldn't either. [Locald_core.Service] owns the
   string -> config interpretation (and its rejections). *)

module Json = Telemetry.Json

let max_frame_default = 1 lsl 20

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

exception Frame_error of string

let encode_frame json =
  let payload = Json.to_string json in
  let len = String.length payload in
  if len > 0xFFFFFFFF then raise (Frame_error "frame payload too large");
  let b = Bytes.create (4 + len) in
  Bytes.set_int32_be b 0 (Int32.of_int len);
  Bytes.blit_string payload 0 b 4 len;
  b

type frame = Frame of Json.t | Garbage of string | Corrupt of string

type decoder = {
  max_frame : int;
  (* Bytes fed so far; those before [start] are consumed. A frame
     leaves the buffer only as its payload copy, and the consumed
     prefix is dropped once it outgrows the live part, so every byte
     fed is copied a bounded number of times however the peer splits
     its writes. *)
  buf : Buffer.t;
  mutable start : int;
  (* Sticky: once the framing desynchronises every further [next]
     reports it, so the owner reliably closes the connection. *)
  mutable corrupt : string option;
}

let decoder ?(max_frame = max_frame_default) () =
  { max_frame; buf = Buffer.create 256; start = 0; corrupt = None }

let feed d b off len = Buffer.add_subbytes d.buf b off len

let live d = Buffer.length d.buf - d.start

let byte d i = Char.code (Buffer.nth d.buf (d.start + i))

(* The unsigned big-endian length prefix at [start], read in place: a
   prefix above 2^31 must compare as huge, not negative. *)
let frame_len d =
  (byte d 0 lsl 24) lor (byte d 1 lsl 16) lor (byte d 2 lsl 8) lor byte d 3

let consume d n =
  d.start <- d.start + n;
  if d.start > live d then begin
    let rest = Buffer.sub d.buf d.start (live d) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.start <- 0
  end

let next d =
  match d.corrupt with
  | Some msg -> Some (Corrupt msg)
  | None ->
      if live d < 4 then None
      else
        let len = frame_len d in
        if len > d.max_frame then begin
          let msg =
            Printf.sprintf "frame length %d exceeds limit %d" len d.max_frame
          in
          d.corrupt <- Some msg;
          Some (Corrupt msg)
        end
        else if live d < 4 + len then None
        else begin
          let payload = Buffer.sub d.buf (d.start + 4) len in
          consume d (4 + len);
          match Json.of_string payload with
          | v -> Some (Frame v)
          | exception Json.Parse_error msg -> Some (Garbage msg)
        end

(* ------------------------------------------------------------------ *)
(* Blocking helpers (clients, tests)                                   *)
(* ------------------------------------------------------------------ *)

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write_frame fd json =
  let b = encode_frame json in
  write_all fd b 0 (Bytes.length b)

(* [Some bytes], or [None] on EOF before the first byte; EOF once a
   read has started is a truncation and raises. *)
let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off >= n then Some b
    else
      match Unix.read fd b off (n - off) with
      | 0 ->
          if off = 0 then None
          else raise (Frame_error "connection closed inside a frame")
      | k -> go (off + k)
  in
  if n = 0 then Some b else go 0

let read_frame ?(max_frame = max_frame_default) fd =
  match read_exact fd 4 with
  | None -> None
  | Some hdr ->
      let len = Int32.to_int (Bytes.get_int32_be hdr 0) land 0xFFFFFFFF in
      if len > max_frame then
        raise
          (Frame_error
             (Printf.sprintf "frame length %d exceeds limit %d" len max_frame));
      (match read_exact fd len with
      | None -> raise (Frame_error "connection closed inside a frame")
      | Some payload -> Some (Json.of_string (Bytes.to_string payload)))

let connect_unix path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e -> Unix.close fd; raise e);
  fd

let connect_tcp ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port))
   with e -> Unix.close fd; raise e);
  fd

(* ------------------------------------------------------------------ *)
(* Typed messages                                                      *)
(* ------------------------------------------------------------------ *)

type op = Decide | Certify | Metrics | Ping | Shutdown

let op_to_string = function
  | Decide -> "decide"
  | Certify -> "certify"
  | Metrics -> "metrics"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let op_of_string = function
  | "decide" -> Some Decide
  | "certify" -> Some Certify
  | "metrics" -> Some Metrics
  | "ping" -> Some Ping
  | "shutdown" -> Some Shutdown
  | _ -> None

type config = {
  c_backend : string option;
  c_sched_seed : int option;
  c_fifo : bool option;
}

let no_config = { c_backend = None; c_sched_seed = None; c_fifo = None }

type request = {
  r_id : int;
  r_op : op;
  r_workload : string option;
  r_lo : int option;
  r_hi : int option;
  r_config : config;
}

let request ?workload ?lo ?hi ?(config = no_config) ~id op =
  { r_id = id; r_op = op; r_workload = workload; r_lo = lo; r_hi = hi;
    r_config = config }

(* Canonical field order — requests built programmatically round-trip
   byte-identically, which the qcheck battery relies on. *)
let request_to_json r =
  let opt name f = function None -> [] | Some v -> [ (name, f v) ] in
  Json.Obj
    (List.concat
       [
         [ ("id", Json.Int r.r_id); ("op", Json.String (op_to_string r.r_op)) ];
         opt "workload" (fun s -> Json.String s) r.r_workload;
         opt "lo" (fun i -> Json.Int i) r.r_lo;
         opt "hi" (fun i -> Json.Int i) r.r_hi;
         opt "backend" (fun s -> Json.String s) r.r_config.c_backend;
         opt "sched_seed" (fun i -> Json.Int i) r.r_config.c_sched_seed;
         opt "fifo" (fun b -> Json.Bool b) r.r_config.c_fifo;
       ])

(* Lenient on unknown fields (forward compatibility), strict on the
   types of known ones — a request with ["lo": "7"] is rejected, not
   coerced. *)
let request_of_json json =
  let ( let* ) = Result.bind in
  match json with
  | Json.Obj _ ->
      let str name =
        match Json.member name json with
        | None -> Ok None
        | Some (Json.String s) -> Ok (Some s)
        | Some _ -> Error (Printf.sprintf "field %S must be a string" name)
      in
      let int name =
        match Json.member name json with
        | None -> Ok None
        | Some (Json.Int i) -> Ok (Some i)
        | Some _ -> Error (Printf.sprintf "field %S must be an integer" name)
      in
      let bool name =
        match Json.member name json with
        | None -> Ok None
        | Some (Json.Bool b) -> Ok (Some b)
        | Some _ -> Error (Printf.sprintf "field %S must be a boolean" name)
      in
      let* id =
        match Json.member "id" json with
        | Some (Json.Int i) when i >= 0 -> Ok i
        | Some _ -> Error "field \"id\" must be a non-negative integer"
        | None -> Error "missing field \"id\""
      in
      let* op =
        match Json.member "op" json with
        | Some (Json.String s) -> (
            match op_of_string s with
            | Some op -> Ok op
            | None -> Error (Printf.sprintf "unknown op %S" s))
        | Some _ -> Error "field \"op\" must be a string"
        | None -> Error "missing field \"op\""
      in
      let* workload = str "workload" in
      let* lo = int "lo" in
      let* hi = int "hi" in
      let* backend = str "backend" in
      let* sched_seed = int "sched_seed" in
      let* fifo = bool "fifo" in
      Ok
        {
          r_id = id;
          r_op = op;
          r_workload = workload;
          r_lo = lo;
          r_hi = hi;
          r_config =
            { c_backend = backend; c_sched_seed = sched_seed; c_fifo = fifo };
        }
  | _ -> Error "request must be a JSON object"

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let response ~id ~op result =
  Json.Obj
    [
      ("id", Json.Int id);
      ("ok", Json.Bool true);
      ("op", Json.String (op_to_string op));
      ("result", result);
    ]

let error_response ?id msg =
  Json.Obj
    [
      ("id", match id with Some i -> Json.Int i | None -> Json.Null);
      ("ok", Json.Bool false);
      ("error", Json.String msg);
    ]

let busy_response ?id ~inflight () =
  Json.Obj
    [
      ("id", match id with Some i -> Json.Int i | None -> Json.Null);
      ("ok", Json.Bool false);
      ("busy", Json.Bool true);
      ("inflight", Json.Int inflight);
    ]

(* The id a reply should echo, when the frame got far enough to carry
   one — busy and malformed replies use this so clients can correlate
   them without a full parse. *)
let request_id json =
  match Json.member "id" json with Some (Json.Int i) -> Some i | _ -> None

type response_view = {
  v_id : int option;
  v_ok : bool;
  v_busy : bool;
  v_error : string option;
  v_result : Json.t option;
}

let response_view json =
  {
    v_id = (match Json.member "id" json with
           | Some (Json.Int i) -> Some i
           | _ -> None);
    v_ok = (match Json.member "ok" json with
           | Some (Json.Bool b) -> b
           | _ -> false);
    v_busy = (match Json.member "busy" json with
             | Some (Json.Bool b) -> b
             | _ -> false);
    v_error = (match Json.member "error" json with
              | Some (Json.String s) -> Some s
              | _ -> None);
    v_result = Json.member "result" json;
  }

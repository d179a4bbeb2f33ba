(** Wire protocol of the locald decision service.

    Length-prefixed JSON framing (4-byte big-endian payload length,
    then one strict {!Telemetry.Json} value) plus the typed
    request/response messages the daemon and its clients exchange.
    The backend travels as a string: this module sits below
    [lib/local] and cannot (and should not) name [Backend.t] — the
    interpretation, including rejection of unknown names, belongs to
    [Locald_core.Service].

    Framing failures are two-tier. A length prefix past [max_frame] is
    {e Corrupt}: stream synchronisation is lost and the connection must
    close. A well-framed payload that fails to parse — including
    nesting past the JSON parser's depth bound — is {e Garbage}: the
    peer gets an error response and the connection survives. *)

module Json = Telemetry.Json

val max_frame_default : int
(** 1 MiB. *)

(** {1 Framing} *)

exception Frame_error of string
(** Raised by the {e blocking} helpers on framing violations
    (oversized frames, EOF inside a frame). The incremental decoder
    never raises — it reports {!Corrupt} / {!Garbage} values. *)

val encode_frame : Json.t -> bytes
(** The wire form of one message: length prefix + serialised JSON. *)

type frame =
  | Frame of Json.t  (** a well-formed message *)
  | Garbage of string
      (** well-framed, unparseable payload — answer with an error and
          keep the connection *)
  | Corrupt of string
      (** broken framing — answer with an error and close; sticky, so
          every later [next] repeats it *)

type decoder
(** An incremental per-connection frame decoder: feed it whatever the
    socket yields, pull complete frames out. Single-owner state. *)

val decoder : ?max_frame:int -> unit -> decoder

val feed : decoder -> bytes -> int -> int -> unit
(** [feed d b off len] appends [len] bytes of [b] at [off]. Never
    blocks, never parses. *)

val next : decoder -> frame option
(** The next complete frame, if one is buffered. Decoding copies each
    byte fed a bounded number of times, whether the peer sends a frame
    one byte per write or many frames in one. *)

(** {1 Blocking helpers}

    For clients, the load generator and tests — one frame per call on
    a blocking fd. *)

val write_frame : Unix.file_descr -> Json.t -> unit

val read_frame : ?max_frame:int -> Unix.file_descr -> Json.t option
(** [None] on clean EOF (before any byte of a frame).
    @raise Frame_error on truncation or an oversized frame.
    @raise Telemetry.Json.Parse_error on an unparseable payload. *)

val connect_unix : string -> Unix.file_descr

val connect_tcp : ?host:string -> port:int -> unit -> Unix.file_descr
(** [host] defaults to ["127.0.0.1"]. *)

(** {1 Typed messages} *)

type op = Decide | Certify | Metrics | Ping | Shutdown

val op_to_string : op -> string
val op_of_string : string -> op option

type config = {
  c_backend : string option;  (** ["sync"] or ["async"] *)
  c_sched_seed : int option;  (** async scheduler seed *)
  c_fifo : bool option;       (** async FIFO delivery *)
}
(** Per-request configuration — every field optional, defaults are the
    daemon's startup configuration. *)

val no_config : config

type request = {
  r_id : int;  (** echoed verbatim in the response *)
  r_op : op;
  r_workload : string option;  (** a {!Locald_core.Sweeps} name *)
  r_lo : int option;  (** rank range, defaulting to the full space *)
  r_hi : int option;
  r_config : config;
}

val request :
  ?workload:string ->
  ?lo:int -> ?hi:int -> ?config:config -> id:int -> op -> request

val request_to_json : request -> Json.t
(** Canonical field order; round-trips byte-identically through
    {!request_of_json}. *)

val request_of_json : Json.t -> (request, string) result
(** Strict on the types of known fields (a string where an integer
    belongs is an error, never a coercion), lenient on unknown
    fields, which are ignored (forward and backward compatibility:
    the [memo] and [jobs] fields of older clients are unknown
    fields). *)

(** {1 Responses} *)

val response : id:int -> op:op -> Json.t -> Json.t
(** [{"id", "ok": true, "op", "result"}]. *)

val error_response : ?id:int -> string -> Json.t
(** [{"id" (or null), "ok": false, "error"}]. *)

val busy_response : ?id:int -> inflight:int -> unit -> Json.t
(** [{"id" (or null), "ok": false, "busy": true, "inflight"}] — the
    backpressure reply when the daemon's inflight queue is full. *)

val request_id : Json.t -> int option
(** Best-effort id extraction from an arbitrary frame, so busy and
    error replies correlate even when the request is otherwise
    invalid. *)

type response_view = {
  v_id : int option;
  v_ok : bool;
  v_busy : bool;
  v_error : string option;
  v_result : Json.t option;
}

val response_view : Json.t -> response_view
(** A lenient reading of any response object — what clients switch
    on. *)

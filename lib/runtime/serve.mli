(** The generic frame server under [locald serve]: a select loop
    multiplexing listeners and connections, a {!Pool} of [jobs]
    domains running it and the requests, pipelined-frame batching, a
    bounded inflight count and graceful draining.

    Request semantics are injected as {!handlers} — this module owns
    sockets, framing, execution, backpressure and shutdown;
    [Locald_core.Service] owns what a request {e means}. Requests run
    concurrently as pool tasks, each at width one, and every
    connection gets its replies in request order. Responses are
    byte-identical to one-shot runs because each request's result is
    a deterministic function of the request alone: the engines are
    deterministic, their memo tables transparent, and a request's
    configuration is explicit.

    Telemetry: the server bumps the run-scoped [serve.requests],
    [serve.busy], [serve.malformed] and [serve.connections] counters
    and wraps each execution in a [serve.request] span, so a metrics
    request (or the load generator) sees latency histograms for free. *)

type reply =
  | Reply of Proto.Json.t
  | Final of Proto.Json.t
      (** send, then begin the drain — how a shutdown request stops
          the daemon from inside *)

type handlers = {
  on_request : Proto.Json.t -> reply;
      (** one complete, well-formed frame. Called from any of the
          pool's domains, concurrently with other requests. Should not
          raise: an exception becomes an error reply carrying the
          frame's id ({!Proto.request_id}) and the loop keeps
          serving. *)
  on_busy : inflight:int -> Proto.Json.t -> Proto.Json.t;
      (** the reply for a frame refused by the inflight bound *)
  on_malformed : string -> Proto.Json.t;
      (** the reply for a [Garbage]/[Corrupt] frame (the daemon keeps
          the connection for the former, closes it for the latter) *)
}

type stats = {
  served : int;      (** requests executed *)
  busy : int;        (** frames refused by the inflight bound *)
  malformed : int;   (** garbage or corrupt frames *)
  connections : int; (** connections accepted *)
}

val listener_unix : string -> Unix.file_descr
(** Bind and listen on a Unix-domain socket path. A socket file there
    that refuses a connection is stale and is unlinked first. Anything
    else at the path is left alone and refused with a [Unix_error]:
    [ENOTSOCK] for a file that is not a socket, [EADDRINUSE] for a
    socket that accepts a connection (a live daemon keeps its name). *)

val listener_tcp : ?host:string -> port:int -> unit -> Unix.file_descr
(** Bind and listen on [host:port] ([host] defaults to loopback), with
    [SO_REUSEADDR]. *)

val run :
  ?max_inflight:int ->
  ?max_frame:int ->
  ?drain:bool Atomic.t ->
  jobs:int ->
  listeners:Unix.file_descr list ->
  handlers:handlers ->
  unit ->
  stats
(** Serve until drained. [jobs] is the width of the server's
    {!Pool}, clamped as {!Pool.create} clamps it: the calling domain
    plus [jobs - 1] spawned ones run requests, each at width one, and
    take turns running the select loop; the spawned domains are joined
    before [run] returns. An exception escaping the loop (not a
    handler) stops the pool and is re-raised here.
    [max_inflight] (default 64) bounds the requests admitted and not
    yet answered — frames past it are answered via [on_busy]
    immediately. [max_frame] is the per-connection {!Proto.decoder}
    bound.

    [drain] is the graceful-shutdown switch: when it becomes true
    (from a signal handler, another thread, or a [Final] reply), the
    loop closes its listeners, reads out whatever frames peers already
    sent, executes everything queued, flushes every response, closes
    the connections and returns. In-flight requests are never dropped.
    Between drain-flag checks the loop sleeps in select for at most
    0.05 s; SIGPIPE is ignored process-wide (a vanished peer surfaces
    as [EPIPE] and closes that connection only).

    Listeners are owned by the loop from this call on: they are closed
    by the drain. The caller removes Unix socket {e paths}. *)

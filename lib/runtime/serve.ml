(* The generic frame server under `locald serve`: a select loop
   multiplexing listeners and connections, with the actual request
   semantics injected as handlers (so this module stays in
   [lib/runtime], below the workload registry that interprets
   requests).

   Concurrency model: [run] creates a [Pool] of [jobs] domains, the
   caller's ([Pool.work]) plus [jobs - 1] workers, and every admitted
   request becomes one pool task. Pool tasks run at width one, so
   requests overlap with each other instead of each fanning out: the
   daemon's requests are small rank ranges, where the fan-out costs
   more than it saves. Responses stay byte-identical to one-shot runs
   because nothing about another in-flight request can influence an
   execution: every engine entry point is deterministic, the memo
   tables are transparent, and each request carries its configuration
   explicitly.

   The select loop is a pool task too, so it belongs to no domain. It
   runs rounds until one admits requests; then it queues all but the
   first, queues itself behind them, and runs the first itself. A free
   domain takes the next queued request or the loop, so replies go out
   and requests come in whenever some domain is free. Pinned to one
   domain, the loop would sit out its own request while replies
   finished elsewhere waited and a domain idled. A domain that finishes
   a request hands the loop its reply, and wakes it through a self-pipe
   only while it runs; only the loop touches connections.

   Ordering: each admitted request takes a slot at the tail of its
   connection's reply queue, and a connection writes only from the
   head, so every connection gets its replies in request order while
   other connections proceed.

   Batching: each loop iteration drains every readable connection
   completely, admitting all complete frames, and dispatches them only
   after the sweep, so pipelined requests share one select round-trip
   and the inflight bound (admitted requests not yet answered) sees
   every frame of a sweep before any runs — frames past it are
   answered [busy] immediately rather than buffered without bound.

   Shutdown: the [drain] atomic (set by the daemon's SIGTERM/SIGINT
   handlers, or by a [Final] reply to a shutdown request) switches the
   loop into drain mode — listeners close, already-buffered frames are
   still read and executed, every queued response is flushed, and only
   then does the loop stop the pool and [run] return. In-flight work is
   never dropped, unlike the flush-and-redeliver signal handlers of
   the batch CLI. *)

type reply = Reply of Proto.Json.t | Final of Proto.Json.t

type handlers = {
  on_request : Proto.Json.t -> reply;
  on_busy : inflight:int -> Proto.Json.t -> Proto.Json.t;
  on_malformed : string -> Proto.Json.t;
}

type stats = {
  served : int;
  busy : int;
  malformed : int;
  connections : int;
}

let c_requests = Telemetry.Counter.make "serve.requests"
let c_busy = Telemetry.Counter.make "serve.busy"
let c_malformed = Telemetry.Counter.make "serve.malformed"
let c_connections = Telemetry.Counter.make "serve.connections"

let listener_unix path =
  (* A socket file left by a daemon that is gone would make bind fail,
     so it is removed. Anything else at the path is refused and left
     alone: a file that is not a socket, and a socket that accepts a
     connection, whose daemon would lose its name. *)
  (match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        Fun.protect
          ~finally:(fun () -> Unix.close probe)
          (fun () ->
            match Unix.connect probe (Unix.ADDR_UNIX path) with
            | () -> true
            | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> false)
      in
      if live then raise (Unix.Unix_error (Unix.EADDRINUSE, "bind", path));
      Unix.unlink path
  | _ -> raise (Unix.Unix_error (Unix.ENOTSOCK, "bind", path)));
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

let listener_tcp ?(host = "127.0.0.1") ~port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (try
     Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
     Unix.listen fd 64
   with e ->
     Unix.close fd;
     raise e);
  fd

(* One reply in its connection's request order: [None] until the
   request it answers has run. Busy and malformed replies are born
   filled. *)
type slot = { mutable frame : Bytes.t option }

type conn = {
  fd : Unix.file_descr;
  dec : Proto.decoder;
  out : slot Queue.t;     (* replies in request order; written head first *)
  mutable out_off : int;
  mutable eof : bool;     (* stop reading: peer closed or reset *)
  mutable closing : bool; (* close once [out] drains: corrupt framing *)
}

(* Between select rounds the loop sleeps at most this long, so it sees
   the drain flag soon after a signal sets it. *)
let poll_interval = 0.05

let run ?(max_inflight = 64) ?max_frame ?(drain = Atomic.make false) ~jobs
    ~listeners ~handlers () =
  (* A peer that disappears mid-write must surface as EPIPE on the
     write call, not kill the daemon. Process-global and deliberately
     not restored: any process hosting this loop wants it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Replies of finished requests, moved into their slots by the loop,
     and whether the loop is running (rather than queued), under
     [lock]. *)
  let lock = Mutex.create () in
  let finished = Queue.create () in
  let looping = ref false in
  (* From here to [run_round], state belongs to the loop task. *)
  let served = ref 0
  and busy = ref 0
  and malformed = ref 0
  and connections = ref 0 in
  let conns : conn list ref = ref [] in
  (* Admitted this read sweep, dispatched after it; [inflight] counts
     admitted requests whose replies have not reached their slots. *)
  let admitted = Queue.create () in
  let inflight = ref 0 in
  (* The self-pipe: a domain finishing a request wakes the loop out of
     select. *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake_byte = Bytes.make 1 '!' in
  let chunk = Bytes.create 65536 in
  let draining = ref false in
  let listeners_open = ref listeners in
  let reply c json = Queue.add { frame = Some (Proto.encode_frame json) } c.out in
  let close_conn c =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    conns := List.filter (fun c' -> c' != c) !conns
  in
  let handle_frame c = function
    | Proto.Frame json ->
        if !inflight >= max_inflight then begin
          incr busy;
          Telemetry.Counter.incr c_busy;
          reply c (handlers.on_busy ~inflight:!inflight json)
        end
        else begin
          let slot = { frame = None } in
          Queue.add slot c.out;
          Queue.add (json, slot) admitted;
          incr inflight
        end
    | Proto.Garbage msg ->
        incr malformed;
        Telemetry.Counter.incr c_malformed;
        reply c (handlers.on_malformed msg)
    | Proto.Corrupt msg ->
        incr malformed;
        Telemetry.Counter.incr c_malformed;
        reply c (handlers.on_malformed msg);
        c.closing <- true
  in
  let handle_readable c =
    match Unix.read c.fd chunk 0 (Bytes.length chunk) with
    | 0 -> c.eof <- true
    | n ->
        Proto.feed c.dec chunk 0 n;
        let rec go () =
          if not c.closing then
            match Proto.next c.dec with
            | Some f ->
                handle_frame c f;
                go ()
            | None -> ()
        in
        go ()
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Queue.clear c.out;
        c.eof <- true;
        c.closing <- true
  in
  let writable c =
    match Queue.peek_opt c.out with Some { frame = Some _ } -> true | _ -> false
  in
  let handle_writable c =
    match Queue.peek_opt c.out with
    | Some { frame = Some b } -> (
        match Unix.write c.fd b c.out_off (Bytes.length b - c.out_off) with
        | n ->
            c.out_off <- c.out_off + n;
            if c.out_off >= Bytes.length b then begin
              ignore (Queue.pop c.out);
              c.out_off <- 0
            end
        | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
            Queue.clear c.out;
            c.eof <- true;
            c.closing <- true)
    | Some { frame = None } | None -> ()
  in
  let do_accept lfd =
    match Unix.accept lfd with
    | fd, _ ->
        incr connections;
        Telemetry.Counter.incr c_connections;
        conns :=
          {
            fd;
            dec = Proto.decoder ?max_frame ();
            out = Queue.create ();
            out_off = 0;
            eof = false;
            closing = false;
          }
          :: !conns
    | exception Unix.Unix_error _ -> ()
  in
  (* Move finished replies into their slots. *)
  let collect () =
    Mutex.protect lock (fun () ->
        Queue.iter
          (fun (slot, frame) ->
            slot.frame <- Some frame;
            incr served;
            decr inflight)
          finished;
        Queue.clear finished)
  in
  (* One round of the select loop; false once a drain has finished. *)
  let run_round () =
    if Atomic.get drain && not !draining then begin
      draining := true;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !listeners_open;
      listeners_open := []
    end;
    collect ();
    let read_fds =
      (wake_r :: !listeners_open)
      @ List.filter_map
          (fun c -> if c.closing || c.eof then None else Some c.fd)
          !conns
    in
    let write_fds =
      List.filter_map (fun c -> if writable c then Some c.fd else None) !conns
    in
    (* Drain mode polls fast: the loop only has to pick up what is
       already buffered in the kernel and flush what it owes. *)
    let timeout = if !draining then 0.01 else poll_interval in
    let r, w, _ =
      try Unix.select read_fds write_fds [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem wake_r r then
      (try ignore (Unix.read wake_r chunk 0 (Bytes.length chunk))
       with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    List.iter (fun lfd -> if List.mem lfd r then do_accept lfd) !listeners_open;
    List.iter (fun c -> if List.mem c.fd r then handle_readable c) !conns;
    List.iter (fun c -> if List.mem c.fd w then handle_writable c) !conns;
    List.iter
      (fun c -> if (c.closing || c.eof) && Queue.is_empty c.out then close_conn c)
      !conns;
    not
      (!draining && r = [] && w = [] && !inflight = 0
      && List.for_all (fun c -> Queue.is_empty c.out) !conns)
  in
  let pool = Pool.create ~jobs in
  (* [task f] is [f] as a pool task. The first exception to escape one
     (the loop's own, not a handler's) stops the pool, turns the tasks
     still queued into no-ops, and is re-raised by [run]. *)
  let failure = Atomic.make None in
  let task f () =
    if Atomic.get failure = None then
      try f ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set failure None (Some (e, bt)));
        Pool.stop pool
  in
  (* Run one request. A handler that raises answers an error carrying
     the frame's id: the request fails, the loop and its slot do not. *)
  let execute (json, slot) =
    Telemetry.Counter.incr c_requests;
    let reply =
      match
        Telemetry.span "serve.request" (fun () -> handlers.on_request json)
      with
      | Reply j -> j
      | Final j ->
          Atomic.set drain true;
          j
      | exception e ->
          Proto.error_response ?id:(Proto.request_id json) (Printexc.to_string e)
    in
    let frame = Proto.encode_frame reply in
    (* A queued loop collects the reply when it next runs; only a
       running one needs waking. *)
    if Mutex.protect lock (fun () -> Queue.add (slot, frame) finished; !looping)
    then
      try ignore (Unix.single_write wake_w wake_byte 0 1)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  (* The loop task: rounds until one admits requests, dispatched only
     after the whole read sweep so the inflight bound sees every frame
     the sweep decoded before any runs. *)
  let rec loop () =
    Mutex.protect lock (fun () -> looping := true);
    let rec rounds () =
      if not (run_round ()) then Pool.stop pool
      else if Queue.is_empty admitted then rounds ()
      else begin
        Mutex.protect lock (fun () -> looping := false);
        let first = Queue.pop admitted in
        Queue.iter
          (fun job -> Pool.submit pool (task (fun () -> execute job)))
          admitted;
        Queue.clear admitted;
        Pool.submit pool (task loop);
        execute first
      end
    in
    rounds ()
  in
  Pool.submit pool (task loop);
  Pool.work pool;
  Pool.shutdown pool;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    ((wake_r :: wake_w :: !listeners_open) @ List.map (fun c -> c.fd) !conns);
  conns := [];
  match Atomic.get failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None ->
      {
        served = !served;
        busy = !busy;
        malformed = !malformed;
        connections = !connections;
      }

(* The generic frame server under `locald serve`: a select loop
   multiplexing listeners and connections, with the actual request
   semantics injected as handlers (so this module stays in
   [lib/runtime], below the workload registry that interprets
   requests).

   Concurrency model: an executor of exactly [jobs] domains, the
   caller's plus [jobs - 1] spawned ones, pulls admitted requests from
   one FIFO queue, and each request runs at width one
   ([Pool.sequential]). Requests overlap with each other instead of
   each fanning out over the domain Pool: the daemon's requests are
   small rank ranges, where the fan-out costs more than it saves.
   Responses stay byte-identical to one-shot runs because nothing
   about another in-flight request can influence an execution: every
   engine entry point is deterministic, the memo tables are
   transparent, and each request carries its configuration
   explicitly.

   The select loop belongs to no domain: whichever is free runs it,
   one at a time. The loop's domain keeps it until a round admits a
   request, then runs that request itself and wakes a sleeping domain
   to take the loop over; a domain that finishes a request takes the
   loop back if nobody holds it. Pinned to one domain, the loop would
   sit out its own request while replies finished elsewhere waited and
   a domain idled. A domain that finishes a request while another runs
   the loop hands it the reply and wakes it through a self-pipe; only
   the loop's holder touches connections.

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
   then does [run] join the executor and return. In-flight work is
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
  (* A stale socket file from a previous daemon would make bind fail;
     removing it is safe because a live daemon holds the listening fd,
     not the name. *)
  (try Unix.unlink path with Unix.Unix_error _ -> ());
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

(* State shared by the executing domains, under [lock]: the FIFO of
   admitted requests, the replies of finished ones (moved into their
   slots by the select loop), and whether a domain runs the loop. *)
type executor = {
  lock : Mutex.t;
  ready : Condition.t;
  todo : (Proto.Json.t * slot) Queue.t;
  finished : (slot * Bytes.t) Queue.t;
  mutable leading : bool;  (* some domain is running the select loop *)
  mutable stop : bool;
}

let run ?(max_inflight = 64) ?max_frame ?(drain = Atomic.make false)
    ?(poll_interval = 0.05) ~jobs ~listeners ~handlers () =
  (* A peer that disappears mid-write must surface as EPIPE on the
     write call, not kill the daemon. Process-global and deliberately
     not restored: any process hosting this loop wants it. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ex =
    {
      lock = Mutex.create ();
      ready = Condition.create ();
      todo = Queue.create ();
      finished = Queue.create ();
      leading = false;
      stop = false;
    }
  in
  (* From here to [run_round], state belongs to the domain running the
     select loop, one at a time ([ex.leading]). *)
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
  (* Move finished replies into their slots; true if requests are
     still waiting to run. *)
  let collect () =
    Mutex.protect ex.lock (fun () ->
        Queue.iter
          (fun (slot, frame) ->
            slot.frame <- Some frame;
            incr served;
            decr inflight)
          ex.finished;
        Queue.clear ex.finished;
        not (Queue.is_empty ex.todo))
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
    let waiting = collect () in
    let read_fds =
      (wake_r :: !listeners_open)
      @ List.filter_map
          (fun c -> if c.closing || c.eof then None else Some c.fd)
          !conns
    in
    let write_fds =
      List.filter_map (fun c -> if writable c then Some c.fd else None) !conns
    in
    (* Requests already waiting are this domain's next work: do not
       sleep on them. Drain mode polls fast: the loop only has to pick
       up what is already buffered in the kernel and flush what it
       owes. *)
    let timeout =
      if waiting then 0. else if !draining then 0.01 else poll_interval
    in
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
    (* Dispatch only after the whole read sweep, so the inflight bound
       sees every frame a sweep decoded before any runs. *)
    Mutex.protect ex.lock (fun () -> Queue.transfer admitted ex.todo);
    not
      (!draining && r = [] && w = [] && !inflight = 0
      && List.for_all (fun c -> Queue.is_empty c.out) !conns)
  in
  (* Run one request at width one. A handler that raises answers an
     error carrying the frame's id: the request fails, the loop and its
     slot do not. *)
  let execute (json, slot) =
    Telemetry.Counter.incr c_requests;
    let reply =
      match
        Telemetry.span "serve.request" (fun () ->
            Pool.sequential (fun () -> handlers.on_request json))
      with
      | Reply j -> j
      | Final j ->
          Atomic.set drain true;
          j
      | exception e ->
          Proto.error_response ?id:(Proto.request_id json) (Printexc.to_string e)
    in
    let frame = Proto.encode_frame reply in
    (* With no domain in the loop this one runs it next, so only a
       loop running elsewhere needs waking. *)
    if Mutex.protect ex.lock (fun () -> Queue.add (slot, frame) ex.finished; ex.leading)
    then
      try ignore (Unix.single_write wake_w wake_byte 0 1)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  let stop_all () =
    Mutex.protect ex.lock (fun () ->
        ex.stop <- true;
        Condition.broadcast ex.ready)
  in
  (* Every domain runs [work]: run the select loop if no domain does,
     else take the oldest waiting request, else sleep. The loop's domain
     keeps it until a round admits a request, then runs that request
     itself and hands the loop to a sleeping domain; a domain that
     finishes a request takes the loop back if it is free. So replies
     go out and requests come in whenever some domain is free. *)
  let rec work () =
    let next =
      Mutex.protect ex.lock (fun () ->
          while Queue.is_empty ex.todo && ex.leading && not ex.stop do
            Condition.wait ex.ready ex.lock
          done;
          if ex.stop then `Stop
          else if not ex.leading then begin
            ex.leading <- true;
            `Lead
          end
          else `Run (Queue.pop ex.todo))
    in
    match next with
    | `Stop -> ()
    | `Run job ->
        execute job;
        work ()
    | `Lead -> lead ()
  and lead () =
    match run_round () with
    | false -> stop_all ()
    | true -> (
        let job =
          Mutex.protect ex.lock (fun () ->
              match Queue.take_opt ex.todo with
              | None -> None
              | Some job ->
                  (* Wake a sleeping domain for the loop and one for
                     each request still waiting. *)
                  ex.leading <- false;
                  for _ = 0 to Queue.length ex.todo do
                    Condition.signal ex.ready
                  done;
                  Some job)
        in
        match job with
        | None -> lead ()
        | Some job ->
            execute job;
            work ())
  in
  (* A domain that fails (the loop itself, not a handler) stops the
     others, and [run] re-raises. *)
  let guarded () =
    match work () with
    | () -> None
    | exception e ->
        stop_all ();
        Some e
  in
  let spawned = ref [] in
  let failure =
    match
      for _ = 2 to jobs do
        spawned := Domain.spawn guarded :: !spawned
      done
    with
    | () -> guarded ()
    | exception e -> Some e
  in
  stop_all ();
  let failures = failure :: List.map Domain.join !spawned in
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    ((wake_r :: wake_w :: !listeners_open) @ List.map (fun c -> c.fd) !conns);
  conns := [];
  match List.find_map Fun.id failures with
  | Some e -> raise e
  | None ->
      {
        served = !served;
        busy = !busy;
        malformed = !malformed;
        connections = !connections;
      }

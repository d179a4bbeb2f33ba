(* Structured telemetry for the runtime: spans, per-run metrics and a
   JSONL event sink.

   Three independent switches, so the cost model is explicit:

   - {b Counters} are always on. They replace the old process-global
     memo/canon/orbit atomics, so every reader of [locald --stats] and
     the bench JSON keeps working; an increment is one atomic
     read-modify-write plus an epoch check.
   - {b Metrics} ([set_metrics true]) additionally record gauges and
     span-duration histograms — what [locald metrics] prints.
   - {b Tracing} ([open_sink path]) additionally writes one JSONL line
     per span and event to the sink.

   When neither metrics nor tracing is enabled, [span name f] is
   [f ()] behind a single branch — no clock read, no allocation — so
   digests and wall times of untraced runs are unchanged.

   {b Per-run scoping.} All metric state lives in an ambient [run]
   record; [new_run ()] installs a fresh one. Handles ([Counter.make])
   cache the run's cell and re-resolve when the run epoch moves, so the
   hot path after the first touch is branch + atomic increment. Two
   domains racing a re-resolution both land on the same new cell; a
   straggler incrementing a just-retired run's cell loses one count to
   the old run — same benign raciness the old global counters had.

   {b Spans across domains.} The span stack is Domain-local: a span
   opened inside a [Pool] worker nests under whatever that worker is
   running, not under the caller's stack, and the emitted record
   carries the domain id so a trace viewer can reassemble lanes. *)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let buf_escape b s =
    Buffer.add_char b '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\r' -> Buffer.add_string b "\\r"
        | '\t' -> Buffer.add_string b "\\t"
        | '\b' -> Buffer.add_string b "\\b"
        | '\012' -> Buffer.add_string b "\\f"
        | c when Char.code c < 0x20 ->
            Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'

  (* Round-trippable float syntax: integral values print with a ".0"
     (so they re-parse as floats, not ints), everything else with 17
     significant digits (exact for doubles). Non-finite values have no
     JSON syntax and degrade to null. *)
  let buf_float b f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else Buffer.add_string b (Printf.sprintf "%.17g" f)

  let rec buf_add b = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> if Float.is_finite f then buf_float b f else Buffer.add_string b "null"
    | String s -> buf_escape b s
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b ", ";
            buf_add b x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string b ", ";
            buf_escape b k;
            Buffer.add_string b ": ";
            buf_add b v)
          fields;
        Buffer.add_char b '}'

  let to_string v =
    let b = Buffer.create 128 in
    buf_add b v;
    Buffer.contents b

  let escape_string s =
    let b = Buffer.create (String.length s + 2) in
    buf_escape b s;
    Buffer.contents b

  let output oc v = output_string oc (to_string v)

  exception Parse_error of string

  let default_max_depth = 512

  (* A small strict recursive-descent parser — enough to round-trip the
     emitter's output and validate trace files in tests (CI uses jq).
     Numbers with '.', 'e' or 'E' parse as [Float], others as [Int]
     (falling back to [Float] on overflow). [\uXXXX] escapes decode to
     UTF-8, pairing surrogates. Container nesting is bounded by
     [max_depth]: recursion depth tracks input nesting one-to-one, so
     without the bound a hostile frame of [2^20] brackets overflows the
     stack of whatever long-lived process (the serve daemon) parses it.
     Over-deep input fails with the same clean [Parse_error] as any
     other malformed frame. *)
  let of_string ?(max_depth = default_max_depth) s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected '%c'" c)
    in
    let literal word v =
      let m = String.length word in
      if !pos + m <= n && String.sub s !pos m = word then begin
        pos := !pos + m;
        v
      end
      else fail ("expected " ^ word)
    in
    let add_utf8 b u =
      if u < 0x80 then Buffer.add_char b (Char.chr u)
      else if u < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (u lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
      end
      else if u < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xE0 lor (u lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xF0 lor (u lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((u lsr 12) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor ((u lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (u land 0x3F)))
      end
    in
    let hex4 () =
      if !pos + 4 > n then fail "truncated \\u escape";
      let v = int_of_string ("0x" ^ String.sub s !pos 4) in
      pos := !pos + 4;
      v
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
            incr pos;
            if !pos >= n then fail "truncated escape";
            let c = s.[!pos] in
            incr pos;
            (match c with
            | '"' -> Buffer.add_char b '"'
            | '\\' -> Buffer.add_char b '\\'
            | '/' -> Buffer.add_char b '/'
            | 'n' -> Buffer.add_char b '\n'
            | 'r' -> Buffer.add_char b '\r'
            | 't' -> Buffer.add_char b '\t'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                let u = hex4 () in
                if u >= 0xD800 && u <= 0xDBFF && !pos + 2 <= n
                   && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    add_utf8 b (0x10000 + ((u - 0xD800) lsl 10) + (lo - 0xDC00))
                  else begin
                    add_utf8 b 0xFFFD;
                    add_utf8 b 0xFFFD
                  end
                end
                else if u >= 0xD800 && u <= 0xDFFF then add_utf8 b 0xFFFD
                else add_utf8 b u
            | _ -> fail "bad escape");
            go ()
        | c ->
            Buffer.add_char b c;
            incr pos;
            go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let number_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && number_char s.[!pos] do
        incr pos
      done;
      let lexeme = String.sub s start (!pos - start) in
      let floaty =
        String.exists (function '.' | 'e' | 'E' -> true | _ -> false) lexeme
      in
      if floaty then
        match float_of_string_opt lexeme with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt lexeme with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt lexeme with
            | Some f -> Float f
            | None -> fail "bad number")
    in
    let rec parse_value depth =
      if depth > max_depth then
        fail (Printf.sprintf "nesting deeper than %d" max_depth);
      skip_ws ();
      match peek () with
      | Some '"' -> String (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let fields = ref [] in
            let rec members () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              fields := (k, v) :: !fields;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ()
              | Some '}' -> incr pos
              | _ -> fail "expected ',' or '}'"
            in
            members ();
            Obj (List.rev !fields)
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            List []
          end
          else begin
            let items = ref [] in
            let rec elements () =
              let v = parse_value (depth + 1) in
              items := v :: !items;
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements ()
              | Some ']' -> incr pos
              | _ -> fail "expected ',' or ']'"
            in
            elements ();
            List (List.rev !items)
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some ('-' | '0' .. '9') -> parse_number ()
      | Some c -> fail (Printf.sprintf "unexpected '%c'" c)
      | None -> fail "unexpected end of input"
    in
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

(* Log2 buckets over seconds: bucket [i] holds durations in
   [2^(i-40), 2^(i-39)) — from sub-nanosecond up to ~2.3 days. Mutated
   only under the owning run's lock. *)
let hist_buckets = 64

let hist_origin = 40

type hist = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_counts : int array;
}

let fresh_hist () =
  {
    h_count = 0;
    h_sum = 0.;
    h_min = infinity;
    h_max = neg_infinity;
    h_counts = Array.make hist_buckets 0;
  }

let hist_bucket d =
  if d <= 0. then 0
  else
    let b = hist_origin + int_of_float (Float.floor (Float.log2 d)) in
    if b < 0 then 0 else if b >= hist_buckets then hist_buckets - 1 else b

let hist_observe h d =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum +. d;
  if d < h.h_min then h.h_min <- d;
  if d > h.h_max then h.h_max <- d;
  let b = hist_bucket d in
  h.h_counts.(b) <- h.h_counts.(b) + 1

(* ------------------------------------------------------------------ *)
(* Runs: the per-run metric scope                                      *)
(* ------------------------------------------------------------------ *)

type run = {
  r_lock : Mutex.t;
  r_counters : (string, int Atomic.t) Hashtbl.t;
  r_gauges : (string, float ref) Hashtbl.t;
  r_hists : (string, hist) Hashtbl.t;
  r_start : float;  (* monotonic origin for relative event timestamps *)
}

let fresh_run () =
  {
    r_lock = Mutex.create ();
    r_counters = Hashtbl.create 32;
    r_gauges = Hashtbl.create 16;
    r_hists = Hashtbl.create 16;
    r_start = Timing.now ();
  }

(* The epoch invalidates cached handles; bump it strictly after the new
   run is installed so a handle that sees the new epoch resolves
   against the new run. *)
let run_epoch = Atomic.make 1

let current_run = Atomic.make (fresh_run ())

let new_run () =
  Atomic.set current_run (fresh_run ());
  Atomic.incr run_epoch

let counter_cell run name =
  Mutex.lock run.r_lock;
  let cell =
    match Hashtbl.find_opt run.r_counters name with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.replace run.r_counters name c;
        c
  in
  Mutex.unlock run.r_lock;
  cell

(* The name of every counter handle ever made, so [metrics_json] can
   report an untouched counter as 0 instead of omitting it. *)
let counter_names = Atomic.make []

let rec register_name name =
  let names = Atomic.get counter_names in
  if
    (not (List.mem name names))
    && not (Atomic.compare_and_set counter_names names (name :: names))
  then register_name name

module Counter = struct
  type t = { name : string; mutable cell : int Atomic.t; mutable epoch : int }

  let resolve c =
    let e = Atomic.get run_epoch in
    if c.epoch <> e then begin
      (* Benign race: concurrent resolvers write the same cell; field
         writes are plain because a stale cell only misattributes a
         handful of counts to the retired run. *)
      c.cell <- counter_cell (Atomic.get current_run) c.name;
      c.epoch <- e
    end;
    c.cell

  let make name =
    register_name name;
    let c = { name; cell = Atomic.make 0; epoch = 0 } in
    ignore (resolve c);
    c

  let incr c = Atomic.incr (resolve c)

  let add c n = if n <> 0 then ignore (Atomic.fetch_and_add (resolve c) n)

  let get c = Atomic.get (resolve c)

  let name c = c.name
end

module Gauge = struct
  type t = string  (* resolved against the current run on every call *)

  let make name = name

  let with_cell name f =
    let run = Atomic.get current_run in
    Mutex.lock run.r_lock;
    let cell =
      match Hashtbl.find_opt run.r_gauges name with
      | Some g -> g
      | None ->
          let g = ref 0. in
          Hashtbl.replace run.r_gauges name g;
          g
    in
    let r = f cell in
    Mutex.unlock run.r_lock;
    r

  let set name v = with_cell name (fun g -> g := v)

  let add name v = with_cell name (fun g -> g := !g +. v)

  let max_to name v = with_cell name (fun g -> if v > !g then g := v)

  let get name = with_cell name (fun g -> !g)
end

let observe_hist name d =
  let run = Atomic.get current_run in
  Mutex.lock run.r_lock;
  let h =
    match Hashtbl.find_opt run.r_hists name with
    | Some h -> h
    | None ->
        let h = fresh_hist () in
        Hashtbl.replace run.r_hists name h;
        h
  in
  hist_observe h d;
  Mutex.unlock run.r_lock

(* ------------------------------------------------------------------ *)
(* Switches                                                            *)
(* ------------------------------------------------------------------ *)

let metrics_on = Atomic.make false

let set_metrics b = Atomic.set metrics_on b

type sink = { s_oc : out_channel; s_lock : Mutex.t }

let sink : sink option Atomic.t = Atomic.make None

let tracing () = Atomic.get sink <> None

let active () = Atomic.get metrics_on || Atomic.get sink <> None

let emit_line j =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      let line = Json.to_string j in
      Mutex.lock s.s_lock;
      output_string s.s_oc line;
      output_char s.s_oc '\n';
      Mutex.unlock s.s_lock

let schema = "locald-trace/1"

let close_sink () =
  match Atomic.exchange sink None with
  | None -> ()
  | Some s ->
      Mutex.lock s.s_lock;
      (try
         output_string s.s_oc
           (Json.to_string (Json.Obj [ ("ev", Json.String "run-end") ]));
         output_char s.s_oc '\n';
         close_out s.s_oc
       with Sys_error _ -> ());
      Mutex.unlock s.s_lock

let at_exit_registered = Atomic.make false

let open_sink path =
  close_sink ();
  let oc = open_out path in
  Atomic.set sink (Some { s_oc = oc; s_lock = Mutex.create () });
  if not (Atomic.exchange at_exit_registered true) then at_exit close_sink;
  emit_line
    (Json.Obj
       [
         ("ev", Json.String "run-start");
         ("schema", Json.String schema);
         ("unix_time", Json.Float (Timing.wall ()));
       ])

(* ------------------------------------------------------------------ *)
(* Shutdown: signal-safe flushing                                      *)
(* ------------------------------------------------------------------ *)

(* [at_exit] does not run when the process dies to SIGINT/SIGTERM, so
   an interrupted [--trace] run used to lose its buffered tail and an
   interrupted shard its open checkpoint writer. Writers register
   flush hooks here; [install_signal_handlers] turns the two
   termination signals into "run the hooks, close the sink, then die
   by the signal's default disposition" — the parent still observes
   death-by-signal (the sweep supervisor classifies on exactly that),
   but nothing buffered is lost. *)

let shutdown_hooks : (unit -> unit) list ref = ref []

let shutdown_lock = Mutex.create ()

let on_shutdown f =
  Mutex.lock shutdown_lock;
  shutdown_hooks := f :: !shutdown_hooks;
  Mutex.unlock shutdown_lock

let run_shutdown_hooks () =
  Mutex.lock shutdown_lock;
  let hooks = !shutdown_hooks in
  Mutex.unlock shutdown_lock;
  List.iter (fun f -> try f () with _ -> ()) hooks

let handlers_installed = Atomic.make false

let install_signal_handlers () =
  if not (Atomic.exchange handlers_installed true) then
    List.iter
      (fun signo ->
        try
          Sys.set_signal signo
            (Sys.Signal_handle
               (fun s ->
                 run_shutdown_hooks ();
                 close_sink ();
                 (* Restore the default disposition and re-deliver, so
                    the exit status reports death by this signal. *)
                 Sys.set_signal s Sys.Signal_default;
                 Unix.kill (Unix.getpid ()) s))
        with Invalid_argument _ | Sys_error _ -> ())
      [ Sys.sigint; Sys.sigterm ]

(* ------------------------------------------------------------------ *)
(* Spans and events                                                    *)
(* ------------------------------------------------------------------ *)

let span_stack : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let domain_id () = (Domain.self () :> int)

let rel_time t = Float.max 0. (t -. (Atomic.get current_run).r_start)

let emit_span ~name ~parent ~depth ~t0 ~dur ~ok =
  let fields =
    [
      ("ev", Json.String "span");
      ("name", Json.String name);
      ("t_s", Json.Float (rel_time t0));
      ("dur_s", Json.Float dur);
      ("depth", Json.Int depth);
      ("domain", Json.Int (domain_id ()));
    ]
  in
  let fields =
    match parent with
    | None -> fields
    | Some p -> fields @ [ ("parent", Json.String p) ]
  in
  let fields = if ok then fields else fields @ [ ("ok", Json.Bool false) ] in
  emit_line (Json.Obj fields)

let span name f =
  if not (active ()) then f ()
  else begin
    let st = Domain.DLS.get span_stack in
    let parent = match !st with [] -> None | p :: _ -> Some p in
    let depth = List.length !st in
    st := name :: !st;
    let t0 = Timing.now () in
    let finish ok =
      let dur = Timing.duration_since t0 in
      (st := match !st with _ :: tl -> tl | [] -> []);
      observe_hist ("span." ^ name) dur;
      if tracing () then emit_span ~name ~parent ~depth ~t0 ~dur ~ok
    in
    match f () with
    | r ->
        finish true;
        r
    | exception e ->
        finish false;
        raise e
  end

let event name fields =
  if tracing () then
    emit_line
      (Json.Obj
         ([
            ("ev", Json.String "event");
            ("name", Json.String name);
            ("t_s", Json.Float (rel_time (Timing.now ())));
            ("domain", Json.Int (domain_id ()));
          ]
         @ fields))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum_s", Json.Float h.h_sum);
      ("min_s", Json.Float (if h.h_count = 0 then 0. else h.h_min));
      ("max_s", Json.Float (if h.h_count = 0 then 0. else h.h_max));
      ( "mean_s",
        Json.Float (if h.h_count = 0 then 0. else h.h_sum /. float_of_int h.h_count)
      );
    ]

let metrics_json () =
  let run = Atomic.get current_run in
  Mutex.lock run.r_lock;
  let counters =
    List.sort String.compare (Atomic.get counter_names)
    |> List.map (fun k ->
           let v = Hashtbl.find_opt run.r_counters k in
           (k, Json.Int (Option.fold ~none:0 ~some:Atomic.get v)))
  in
  let gauges =
    sorted_bindings run.r_gauges
    |> List.map (fun (k, v) -> (k, Json.Float !v))
  in
  let hists =
    sorted_bindings run.r_hists |> List.map (fun (k, h) -> (k, hist_json h))
  in
  Mutex.unlock run.r_lock;
  Json.Obj
    [
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj hists);
    ]

let pp_metrics ppf () =
  let pad = 44 in
  let line kind name rest =
    Format.fprintf ppf "%-8s %-*s %s@." kind pad name rest
  in
  match metrics_json () with
  | Json.Obj [ ("counters", Json.Obj cs); ("gauges", Json.Obj gs);
               ("histograms", Json.Obj hs) ] ->
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Int i -> line "counter" k (string_of_int i)
          | _ -> ())
        cs;
      List.iter
        (fun (k, v) ->
          match v with
          | Json.Float f -> line "gauge" k (Printf.sprintf "%g" f)
          | _ -> ())
        gs;
      List.iter
        (fun (k, v) ->
          match
            ( Json.member "count" v,
              Json.member "sum_s" v,
              Json.member "min_s" v,
              Json.member "max_s" v )
          with
          | Some (Json.Int c), Some (Json.Float s), Some (Json.Float mn),
            Some (Json.Float mx) ->
              line "hist" k
                (Printf.sprintf "count=%d sum=%.6fs min=%.6fs max=%.6fs" c s mn
                   mx)
          | _ -> ())
        hs
  | _ -> ()

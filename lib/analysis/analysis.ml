open Locald_graph
open Locald_local
open Locald_runtime

type confirmation = {
  cf_instance : string;
  cf_method : string;
  cf_variance : Oblivious.witness option;
}

type witness = {
  w_instance : string;
  w_node : int;
  w_access : View.access;
  w_trace : Trace.t;
  w_confirmation : confirmation option;
}

type flag =
  | Radius_violation of {
      rv_instance : string;
      rv_node : int;
      rv_depth : int;
      rv_declared : int;
    }
  | Nondeterminism of { nd_instance : string; nd_node : int }

type verdict =
  | Certified_oblivious
  | Id_dependent of witness
  | Inconclusive of { covered : int; total : int; why : string }

type report = {
  rep_algorithm : string;
  rep_radius : int;
  rep_verdict : verdict;
  rep_views : int;
  rep_total : int;
  rep_degraded : int;
  rep_events : int;
  rep_max_depth : int;
  rep_flags : flag list;
}

type confirm_method =
  | Confirm_exhaustive of int
  | Confirm_sampled of { regime : Ids.regime; trials : int; seed : int }

(* What tracing one view yields. Probes are produced by a [Pool.map]
   (slot [i] holds view [i]'s probe regardless of job count) and folded
   sequentially, so every aggregate below is deterministic. *)
type probe = {
  p_instance : string;
  p_node : int;
  p_first_input : View.access option;
  p_trace : Trace.t;
  p_nondet : bool;
}

let tag_no_ids name f x =
  try f x
  with View.No_ids msg -> raise (View.No_ids (name ^ ": " ^ msg))

(* Views actually traced (post-budget, post-fault-degradation) and
   provenance flags raised — the certifier's cost and signal volumes. *)
let c_probes = Telemetry.Counter.make "certify.probes"
let c_flags = Telemetry.Counter.make "certify.flags"

let certify ?pool ?(budget = 20_000) ?(slack = 0) ?plan ?confirm ?confirm_on
    ?backend (alg : ('a, bool) Algorithm.t) ~instances =
  if budget < 1 then invalid_arg "Analysis.certify: budget must be positive";
  if slack < 0 then invalid_arg "Analysis.certify: negative slack";
  Telemetry.span "analysis.certify" @@ fun () ->
  let horizon = alg.Algorithm.radius + slack in
  (* Degraded nodes first: a fault plan that leaves a node [Unknown]
     removes it from the coverage — we refuse to certify what we could
     not observe. *)
  let prepared =
    List.map
      (fun (iname, lg) ->
        let n = Labelled.order lg in
        let degraded =
          match plan with
          | None -> Array.make n false
          | Some plan ->
              Fault_runner.run_outputs ~plan alg lg ~ids:(Ids.sequential n)
              |> Array.map (fun o -> not (Fault_runner.decided o))
        in
        (iname, lg, degraded))
      instances
  in
  let total =
    List.fold_left (fun acc (_, lg, _) -> acc + Labelled.order lg) 0 prepared
  in
  let degraded_total =
    List.fold_left
      (fun acc (_, _, d) -> acc + Array.fold_left (fun a b -> if b then a + 1 else a) 0 d)
      0 prepared
  in
  (* Work items in (instance, node) order, capped by the budget. *)
  let items = ref [] and traced = ref 0 and budget_hit = ref false in
  List.iter
    (fun (iname, lg, degraded) ->
      let n = Labelled.order lg in
      let ids_arr = Array.init n Fun.id in
      for v = 0 to n - 1 do
        if not degraded.(v) then
          if !traced >= budget then budget_hit := true
          else begin
            incr traced;
            items := (iname, lg, ids_arr, v) :: !items
          end
      done)
    prepared;
  let items = Array.of_list (List.rev !items) in
  let decide = tag_no_ids alg.Algorithm.name alg.Algorithm.decide in
  (* The probe keeps no part of the view, so the ball is borrowed
     rather than allocated, and a big ball's label and id arrays are
     lent by this call's lender, which every worker shares. *)
  let lender = View.lender () in
  let probe (iname, lg, ids_arr, v) =
    Telemetry.Counter.incr c_probes;
    let first_input, trace, nondet =
      View.with_extract lender ~ids:ids_arr lg ~center:v ~radius:horizon (fun view ->
          (* The view's restricted id array, fresh or lent to this probe
             alone, carries the input assignment, and nothing else does:
             input provenance is physical equality with it. Anything the
             algorithm manufactures ([View.reassign_ids]) is a different
             array and classifies as synthetic. *)
          let input_arr =
            match view.View.ids with Some a -> a | None -> assert false
          in
          let input_ids a = a == input_arr in
          let (out1, t1), (out2, t2) = Trace.run_twice ~input_ids decide view in
          ( Trace.first_input_id_read t1,
            t1,
            out1 <> out2 || not (Trace.equal t1 t2) ))
    in
    {
      p_instance = iname;
      p_node = v;
      p_first_input = first_input;
      p_trace = trace;
      p_nondet = nondet;
    }
  in
  let probes = Pool.map ?pool probe items in
  (* Sequential aggregation, first-in-node-order semantics. *)
  let flags = ref [] in
  Array.iter
    (fun p ->
      if p.p_trace.Trace.max_depth > alg.Algorithm.radius then
        flags :=
          Radius_violation
            {
              rv_instance = p.p_instance;
              rv_node = p.p_node;
              rv_depth = p.p_trace.Trace.max_depth;
              rv_declared = alg.Algorithm.radius;
            }
          :: !flags;
      if p.p_nondet then
        flags :=
          Nondeterminism { nd_instance = p.p_instance; nd_node = p.p_node }
          :: !flags)
    probes;
  Telemetry.Counter.add c_flags (List.length !flags);
  let first_reader =
    Array.fold_left
      (fun acc p ->
        match acc with
        | Some _ -> acc
        | None -> (
            match p.p_first_input with Some _ -> Some p | None -> None))
      None probes
  in
  let covered = Array.length probes in
  let verdict =
    match first_reader with
    | Some p ->
        let access = Option.get p.p_first_input in
        let confirmation =
          match confirm with
          | None -> None
          | Some m ->
              let cname, clg =
                match confirm_on with
                | Some c -> c
                | None -> (p.p_instance, List.assoc p.p_instance instances)
              in
              let cf_method, cf_variance =
                match m with
                | Confirm_exhaustive bound ->
                    ( Printf.sprintf "exhaustive<%d" bound,
                      Oblivious.find_variance_exhaustive ?backend ~bound alg
                        clg )
                | Confirm_sampled { regime; trials; seed } ->
                    ( Printf.sprintf "sampled %dx" trials,
                      Oblivious.find_variance_sampled ?backend
                        ~rng:(Random.State.make [| seed |])
                        ~trials ~regime alg clg )
              in
              Some { cf_instance = cname; cf_method; cf_variance }
        in
        Id_dependent
          {
            w_instance = p.p_instance;
            w_node = p.p_node;
            w_access = access;
            w_trace = p.p_trace;
            w_confirmation = confirmation;
          }
    | None ->
        if !budget_hit then
          Inconclusive { covered; total; why = "view budget exhausted" }
        else if degraded_total > 0 then
          Inconclusive
            {
              covered;
              total;
              why =
                Printf.sprintf "%d node(s) degraded by the fault plan"
                  degraded_total;
            }
        else Certified_oblivious
  in
  {
    rep_algorithm = alg.Algorithm.name;
    rep_radius = alg.Algorithm.radius;
    rep_verdict = verdict;
    rep_views = covered;
    rep_total = total;
    rep_degraded = degraded_total;
    rep_events =
      Array.fold_left (fun acc p -> acc + Trace.total_events p.p_trace) 0 probes;
    rep_max_depth =
      Array.fold_left
        (fun acc p -> max acc p.p_trace.Trace.max_depth)
        (-1) probes;
    rep_flags = List.rev !flags;
  }

let certified r =
  match r.rep_verdict with Certified_oblivious -> true | _ -> false

let id_dependent r =
  match r.rep_verdict with Id_dependent _ -> true | _ -> false

let confirmed r =
  match r.rep_verdict with
  | Id_dependent { w_confirmation = Some c; _ } ->
      Some (Option.is_some c.cf_variance)
  | _ -> None

let verdict_name = function
  | Certified_oblivious -> "certified-oblivious"
  | Id_dependent _ -> "id-dependent"
  | Inconclusive _ -> "inconclusive"

let pp_flag ppf = function
  | Radius_violation { rv_instance; rv_node; rv_depth; rv_declared } ->
      Format.fprintf ppf
        "radius violation: %s node %d accessed depth %d beyond declared \
         radius %d"
        rv_instance rv_node rv_depth rv_declared
  | Nondeterminism { nd_instance; nd_node } ->
      Format.fprintf ppf "nondeterminism: %s node %d differs across two runs"
        nd_instance nd_node

let pp_confirmation ppf c =
  match c.cf_variance with
  | Some (w : Oblivious.witness) ->
      Format.fprintf ppf "; variance confirmed on %s at node %d (%s)"
        c.cf_instance w.Oblivious.node c.cf_method
  | None ->
      Format.fprintf ppf "; variance not found on %s (%s)" c.cf_instance
        c.cf_method

let pp_verdict ppf = function
  | Certified_oblivious -> Format.pp_print_string ppf "certified Id-oblivious"
  | Id_dependent w ->
      Format.fprintf ppf "Id-dependent: %s node %d, %a%a" w.w_instance w.w_node
        Trace.pp_access w.w_access
        (Format.pp_print_option pp_confirmation)
        w.w_confirmation
  | Inconclusive { covered; total; why } ->
      Format.fprintf ppf "inconclusive (%d/%d views traced; %s)" covered total
        why

let pp_report ppf r =
  Format.fprintf ppf "@[<v 2>%s (radius %d): %a@ views %d/%d%t; events %d; max depth %d"
    r.rep_algorithm r.rep_radius pp_verdict r.rep_verdict r.rep_views
    r.rep_total
    (fun ppf ->
      if r.rep_degraded > 0 then
        Format.fprintf ppf " (%d degraded)" r.rep_degraded)
    r.rep_events r.rep_max_depth;
  List.iter (fun f -> Format.fprintf ppf "@ %a" pp_flag f) r.rep_flags;
  Format.fprintf ppf "@]"

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

type flag = Nondeterminism of { nd_instance : string; nd_node : int }

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
  rep_events : int;
  rep_max_depth : int;
  rep_flags : flag list;
}

type confirm_method = Confirm_exhaustive of int

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

(* Views actually traced (post-budget) and provenance flags raised —
   the certifier's cost and signal volumes. *)
let c_probes = Telemetry.Counter.make "certify.probes"
let c_flags = Telemetry.Counter.make "certify.flags"

let certify ?(budget = 20_000) ?confirm ?confirm_on ?backend
    (alg : ('a, bool) Algorithm.t) ~instances =
  if budget < 1 then invalid_arg "Analysis.certify: budget must be positive";
  Telemetry.span "analysis.certify" @@ fun () ->
  let total =
    List.fold_left (fun acc (_, lg) -> acc + Labelled.order lg) 0 instances
  in
  (* Work items in (instance, node) order, capped by the budget. *)
  let items = ref [] and traced = ref 0 in
  List.iter
    (fun (iname, lg) ->
      let n = Labelled.order lg in
      let ids_arr = Array.init n Fun.id in
      for v = 0 to n - 1 do
        if !traced < budget then begin
          incr traced;
          items := (iname, lg, ids_arr, v) :: !items
        end
      done)
    instances;
  let items = Array.of_list (List.rev !items) in
  let decide = tag_no_ids alg.Algorithm.name alg.Algorithm.decide in
  (* The probe keeps no part of the view, so the ball is borrowed
     rather than allocated, and a big ball's label and id arrays are
     lent by this call's lender, which every worker shares. *)
  let lender = View.lender () in
  let probe (iname, lg, ids_arr, v) =
    Telemetry.Counter.incr c_probes;
    let first_input, trace, nondet =
      View.with_extract lender ~ids:ids_arr lg ~center:v
        ~radius:alg.Algorithm.radius (fun view ->
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
  let probes = Pool.map probe items in
  (* Sequential aggregation, first-in-node-order semantics. *)
  let flags =
    Array.fold_right
      (fun p acc ->
        if p.p_nondet then
          Nondeterminism { nd_instance = p.p_instance; nd_node = p.p_node }
          :: acc
        else acc)
      probes []
  in
  Telemetry.Counter.add c_flags (List.length flags);
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
        let confirmation =
          Option.map
            (fun (Confirm_exhaustive bound) ->
              let cf_instance, clg =
                match confirm_on with
                | Some c -> c
                | None -> (p.p_instance, List.assoc p.p_instance instances)
              in
              {
                cf_instance;
                cf_method = Printf.sprintf "exhaustive<%d" bound;
                cf_variance =
                  Oblivious.find_variance_exhaustive ?backend ~bound alg clg;
              })
            confirm
        in
        Id_dependent
          {
            w_instance = p.p_instance;
            w_node = p.p_node;
            w_access = Option.get p.p_first_input;
            w_trace = p.p_trace;
            w_confirmation = confirmation;
          }
    | None ->
        if covered < total then
          Inconclusive { covered; total; why = "view budget exhausted" }
        else Certified_oblivious
  in
  {
    rep_algorithm = alg.Algorithm.name;
    rep_radius = alg.Algorithm.radius;
    rep_verdict = verdict;
    rep_views = covered;
    rep_total = total;
    rep_events =
      Array.fold_left (fun acc p -> acc + Trace.total_events p.p_trace) 0 probes;
    rep_max_depth =
      Array.fold_left
        (fun acc p -> max acc p.p_trace.Trace.max_depth)
        (-1) probes;
    rep_flags = flags;
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

let pp_flag ppf (Nondeterminism { nd_instance; nd_node }) =
  Format.fprintf ppf "nondeterminism: %s node %d differs across two runs"
    nd_instance nd_node

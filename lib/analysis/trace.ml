open Locald_graph

type t = {
  events : View.access list;
  input_id_reads : int;
  input_bulk_reads : int;
  synthetic_id_reads : int;
  label_reads : int;
  structure_reads : int;
  max_depth : int;
}

let of_events events =
  let input_id_reads = ref 0
  and input_bulk_reads = ref 0
  and synthetic_id_reads = ref 0
  and label_reads = ref 0
  and structure_reads = ref 0
  and max_depth = ref (-1) in
  let depth d = if d > !max_depth then max_depth := d in
  List.iter
    (fun (ev : View.access) ->
      match ev with
      | View.Id_read { depth = d; input; _ } ->
          if input then incr input_id_reads else incr synthetic_id_reads;
          depth d
      | View.Ids_read { input } ->
          if input then incr input_bulk_reads else incr synthetic_id_reads
      | View.Label_read { depth = d; _ } ->
          incr label_reads;
          depth d
      | View.Structure_read { node; depth = d } ->
          incr structure_reads;
          (match node with Some _ -> depth d | None -> ()))
    events;
  {
    events;
    input_id_reads = !input_id_reads;
    input_bulk_reads = !input_bulk_reads;
    synthetic_id_reads = !synthetic_id_reads;
    label_reads = !label_reads;
    structure_reads = !structure_reads;
    max_depth = !max_depth;
  }

let run ~input_ids f v =
  let acc = ref [] in
  let mon = { View.input_ids; emit = (fun ev -> acc := ev :: !acc) } in
  let out = View.with_monitor mon (fun () -> f v) in
  (out, of_events (List.rev !acc))

(* Two runs under ONE installed monitor, each with its own event
   accumulator. Equivalent to two [run] calls, but the monitor's
   distance memo (the per-view BFS) is shared between the runs —
   certification's nondeterminism double-run costs one BFS, not two. *)
let run_twice ~input_ids f v =
  let acc1 = ref [] and acc2 = ref [] in
  let current = ref acc1 in
  let mon =
    { View.input_ids; emit = (fun ev -> !current := ev :: !(!current)) }
  in
  View.with_monitor mon (fun () ->
      let out1 = f v in
      current := acc2;
      let out2 = f v in
      ((out1, of_events (List.rev !acc1)), (out2, of_events (List.rev !acc2))))

let reads_input_ids t = t.input_id_reads > 0 || t.input_bulk_reads > 0

let first_input_id_read t =
  List.find_opt
    (fun (ev : View.access) ->
      match ev with
      | View.Id_read { input; _ } | View.Ids_read { input } -> input
      | View.Label_read _ | View.Structure_read _ -> false)
    t.events

let total_events t = List.length t.events

let equal a b = a.events = b.events

let pp_access ppf (ev : View.access) =
  match ev with
  | View.Id_read { node; depth; id; input } ->
      Format.fprintf ppf "id-read(node %d, depth %d, id %d, %s)" node depth id
        (if input then "input" else "synthetic")
  | View.Ids_read { input } ->
      Format.fprintf ppf "ids-read(all, %s)"
        (if input then "input" else "synthetic")
  | View.Label_read { node; depth } ->
      Format.fprintf ppf "label-read(node %d, depth %d)" node depth
  | View.Structure_read { node = None; depth = _ } ->
      Format.fprintf ppf "structure-read(whole view)"
  | View.Structure_read { node = Some v; depth } ->
      Format.fprintf ppf "structure-read(node %d, depth %d)" v depth

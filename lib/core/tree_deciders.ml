open Locald_graph
open Locald_local
open Locald_decision
open Locald_runtime
module Lt = Layered_tree
module Ti = Tree_instances

let rec power base e = if e = 0 then 1 else base * power base (e - 1)

(* The label of a view node, as the layered-tree inspector wants it. *)
let tree_label_of (view : Ti.label View.t) v =
  match view.View.labels.(v) with
  | Ti.Tree l -> Some l
  | Ti.Pivot _ -> None

let pivot_rule (p : Ti.params) (view : Ti.label View.t) r =
  r = p.Ti.r
  &&
  let d = Bound.big_r ~regime:p.Ti.regime ~arity:p.Ti.arity ~r in
  (* In decreasing neighbour order; only the sorted coordinates matter. *)
  let coords =
    Graph.fold_neighbours
      (fun u acc ->
        (match view.View.labels.(u) with
        | Ti.Tree l when l.Lt.r = r -> Some l
        | Ti.Tree _ | Ti.Pivot _ -> None)
        :: acc)
      view.View.graph view.View.center []
  in
  List.for_all Option.is_some coords
  &&
  let coords = List.filter_map Fun.id coords |> List.sort compare in
  match coords with
  | [] -> false
  | first :: _ ->
      (* Try every cone level the first border node could sit on. *)
      let candidates =
        List.filter_map
          (fun k ->
            let y0 = first.Lt.y - k in
            if y0 < 0 || y0 + r > d then None
            else Some (first.Lt.x / power p.Ti.arity k, y0))
          (List.init (r + 1) Fun.id)
      in
      List.exists
        (fun apex -> Ti.border_coords { p with Ti.r } ~apex = coords)
        candidates

let tree_rule (p : Ti.params) (view : Ti.label View.t) (l : Lt.label) =
  l.Lt.r = p.Ti.r
  &&
  let d = Bound.big_r ~regime:p.Ti.regime ~arity:p.Ti.arity ~r:l.Lt.r in
  match
    Lt.inspect ~arity:p.Ti.arity ~depth:d ~label_of:(tree_label_of view)
      view.View.graph view.View.center
  with
  | None -> false
  | Some c -> (
      c.Lt.label_ok
      && c.Lt.unexpected_tree = []
      &&
      match c.Lt.foreign with
      | [] -> c.Lt.missing = []
      | [ pv ] -> (
          (* A border node: adjacent to exactly one pivot (same r). *)
          c.Lt.missing <> []
          &&
          match view.View.labels.(pv) with
          | Ti.Pivot r' -> r' = l.Lt.r
          | Ti.Tree _ -> false)
      | _ :: _ :: _ -> false)

let pprime_verifier p =
  Algorithm.make_oblivious ~name:"P'-verifier" ~radius:1 (fun view ->
      match View.center_label view with
      | Ti.Pivot r -> pivot_rule p view r
      | Ti.Tree l -> tree_rule p view l)

let p_decider p =
  let structure = pprime_verifier p in
  Algorithm.make ~name:"P-decider" ~radius:1 (fun view ->
      let r =
        match View.center_label view with Ti.Pivot r -> r | Ti.Tree l -> l.Lt.r
      in
      let rr = Bound.big_r ~regime:p.Ti.regime ~arity:p.Ti.arity ~r in
      structure.Algorithm.ob_decide (View.strip_ids view) && View.center_id view < rr)

type coverage = {
  t : int;
  total_views : int;
  covered : int;
  uncovered_node : int option;
}

let coverage p ~t =
  let tr = Ti.big_tree p in
  let d = Ti.depth p in
  let arity = p.Ti.arity in
  let n = Labelled.order tr in
  let canon = Canon.create ~equal:( = ) () in
  (* Extract and canonically key every view of T_r in parallel, then
     deduplicate sequentially in ascending node order, so the class
     representatives are the same at any job count. [seen] decides
     membership; [classes] only records the representatives. The
     uncovered witness is the first uncovered representative in
     [Hashtbl.fold] order over [classes], so that table's key type (the
     fingerprint, the historical [Iso.view_signature] bucket) and its
     initial size are part of the pinned output. *)
  let keyed =
    Pool.map
      (fun v -> (View.extract tr ~center:v ~radius:t, v))
      (Pool.init_in_order n Fun.id)
  in
  let keys = Pool.map (fun (view, _) -> Canon.key canon view) keyed in
  let seen = Canon.classes canon in
  let classes : (int, (Ti.label Canon.key * int) list ref) Hashtbl.t =
    Hashtbl.create 256
  in
  Array.iteri
    (fun i (_, v) ->
      let key = keys.(i) in
      if Canon.add seen key then
        let s = Canon.fingerprint key in
        match Hashtbl.find_opt classes s with
        | Some b -> b := (key, v) :: !b
        | None -> Hashtbl.replace classes s (ref [ (key, v) ]))
    keyed;
  let representatives = Hashtbl.fold (fun _ b acc -> !b @ acc) classes [] in
  (* Decide-once cache of the small instances and the big-index ->
     cone-index maps, shared across the parallel coverage checks below.
     Each representative retries up to [r + 1] cone levels and distinct
     representatives overlap heavily in the apexes they propose, so the
     lookups repeat — a {!Memo} table both dedupes the construction and
     reports the reuse into the run-scoped memo tallies (the bench
     hits / orbit-class columns). Construction is idempotent, so a
     racing duplicate compute is benign (first store wins). *)
  let cache =
    Memo.create ~hash:Memo.structural_hash ~equal:Memo.structural_equal ()
  in
  let small_at apex =
    Memo.find_or_compute cache apex (fun () ->
        let inst = Ti.small_instance p ~apex in
        let members = Lt.cone ~arity ~apex ~r:p.Ti.r in
        let local = Hashtbl.create (2 * Array.length members) in
        (* [Labelled.induced] sorts members, so sorted order is the
           cone-local index order. *)
        let sorted = Array.copy members in
        Array.sort (fun (a : int) b -> compare a b) sorted;
        Array.iteri (fun i v -> Hashtbl.replace local v i) sorted;
        (inst, local))
  in
  let coord_of v =
    let rec find_level y =
      if Lt.level_offset ~arity (y + 1) > v then y else find_level (y + 1)
    in
    let y = find_level 0 in
    (v - Lt.level_offset ~arity y, y)
  in
  let node_covered (key, v) =
    let x, y = coord_of v in
    List.exists
      (fun k ->
        let y0 = y - k in
        y0 >= 0
        && y0 + p.Ti.r <= d
        &&
        let apex = (x / power arity k, y0) in
        let inst, local = small_at apex in
        match Hashtbl.find_opt local v with
        | None -> false
        | Some i ->
            (* [equivalent] rejects an order or size mismatch anyway;
               checking first skips keying such a candidate. *)
            let candidate = View.extract inst ~center:i ~radius:t in
            let g = candidate.View.graph in
            let target = (Canon.view key).View.graph in
            Graph.order g = Graph.order target
            && Graph.size g = Graph.size target
            && Canon.equivalent canon key (Canon.key canon candidate))
      (List.init (p.Ti.r + 1) Fun.id)
  in
  let flags = Pool.map node_covered (Array.of_list representatives) in
  let reps = Array.of_list representatives in
  let covered = ref 0 and uncovered = ref None in
  Array.iteri
    (fun i ok ->
      if ok then incr covered
      else if !uncovered = None then uncovered := Some (snd reps.(i)))
    flags;
  {
    t;
    total_views = Array.length reps;
    covered = !covered;
    uncovered_node = !uncovered;
  }

type budget_failure =
  | Rejects_small of (int * int)
  | Accepts_large
  | No_failure_found

let budgeted_a_star p ~budget ~trials =
  let alg = p_decider p in
  let simulated =
    Simulation.a_star
      ~budget:(Simulation.Sampled { bound = budget; trials; seed = 0x5eed })
      alg
  in
  (* Scan a bounded sample of apexes — one wrongly rejected small
     instance is all the experiment needs, and the apex count is
     exponential in R(r). *)
  let apexes = Ti.apexes p in
  let stride = max 1 (List.length apexes / 64) in
  let sampled = List.filteri (fun i _ -> i mod stride = 0) apexes in
  (* All sampled apexes are decided in parallel but the witness is the
     first rejection in sample order, as the sequential scan found. *)
  let rejected =
    Pool.map
      (fun apex ->
        Verdict.rejects
          (Decider.decide_oblivious simulated (Ti.small_instance p ~apex)))
      (Array.of_list sampled)
  in
  let sampled = Array.of_list sampled in
  let wrongly_rejected_small =
    let rec first i =
      if i >= Array.length rejected then None
      else if rejected.(i) then Some sampled.(i)
      else first (i + 1)
    in
    first 0
  in
  match wrongly_rejected_small with
  | Some apex -> Rejects_small apex
  | None ->
      if Verdict.accepts (Decider.decide_oblivious simulated (Ti.big_tree p)) then
        Accepts_large
      else No_failure_found

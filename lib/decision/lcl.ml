open Locald_graph
open Locald_local

type 'a spec = {
  lcl_name : string;
  lcl_radius : int;
  valid : 'a View.t -> bool;
}

let property spec =
  Property.make ~name:spec.lcl_name (fun lg ->
      let n = Labelled.order lg in
      let rec go v =
        v >= n
        || (spec.valid (View.extract lg ~center:v ~radius:spec.lcl_radius)
           && go (v + 1))
      in
      go 0)

let decider spec =
  Algorithm.make_oblivious ~name:(spec.lcl_name ^ "-decider")
    ~radius:spec.lcl_radius spec.valid

let decides spec instances =
  let p = property spec in
  let d = decider spec in
  List.for_all
    (fun lg ->
      Verdict.accepts (Verdict.of_outputs (Runner.run_oblivious d lg))
      = p.Property.mem lg)
    instances

(* ------------------------------------------------------------------ *)
(* Stock LCLs                                                          *)
(* ------------------------------------------------------------------ *)

let proper_colouring ~k =
  {
    lcl_name = Printf.sprintf "lcl-%d-colouring" k;
    lcl_radius = 1;
    valid =
      (fun view ->
        let c = View.center_label view in
        c >= 0 && c < k
        && Graph.for_all_neighbours
             (fun u -> view.View.labels.(u) <> c)
             view.View.graph view.View.center);
  }

let maximal_independent_set =
  {
    lcl_name = "lcl-mis";
    lcl_radius = 1;
    valid =
      (fun view ->
        let v = view.View.center in
        let in_set u = view.View.labels.(u) = 1 in
        let g = view.View.graph in
        let label = view.View.labels.(v) in
        (label = 0 || label = 1)
        && ((not (in_set v)) || Graph.for_all_neighbours (fun u -> not (in_set u)) g v)
        && (in_set v || Graph.exists_neighbour in_set g v));
  }

let dominating_set =
  {
    lcl_name = "lcl-dominating-set";
    lcl_radius = 1;
    valid =
      (fun view ->
        let v = view.View.center in
        let in_set u = view.View.labels.(u) = 1 in
        in_set v || Graph.exists_neighbour in_set view.View.graph v);
  }

(* The matched partner named by position within the sorted adjacency
   list; radius 2 so that the partner's full (order-preserved)
   adjacency is inside the view. *)
let partner_of view u =
  let g = view.View.graph in
  match view.View.labels.(u) with
  | Some k when k >= 0 && k < Graph.degree g u -> Some (Graph.neighbour g u k)
  | Some _ | None -> None

let maximal_matching =
  {
    lcl_name = "lcl-maximal-matching";
    lcl_radius = 2;
    valid =
      (fun view ->
        let v = view.View.center in
        match view.View.labels.(v) with
        | Some _ -> (
            match partner_of view v with
            | None -> false (* position out of range *)
            | Some u -> partner_of view u = Some v)
        | None ->
            (* Maximality: no unmatched neighbour either. *)
            Graph.for_all_neighbours
              (fun u -> view.View.labels.(u) <> None)
              view.View.graph v);
  }

let sinkless_orientation =
  {
    lcl_name = "lcl-sinkless-orientation";
    lcl_radius = 2;
    valid =
      (fun view ->
        let g = view.View.graph in
        let v = view.View.center in
        let out u =
          let k = view.View.labels.(u) in
          if k >= 0 && k < Graph.degree g u then Some (Graph.neighbour g u k)
          else None
        in
        match out v with
        | None -> Graph.degree g v = 0
        | Some u -> Graph.degree g v < 2 || out u <> Some v);
  }

(* ------------------------------------------------------------------ *)
(* Greedy constructors                                                 *)
(* ------------------------------------------------------------------ *)

let greedy_mis lg =
  let g = Labelled.graph lg in
  let n = Graph.order g in
  let label = Array.make n 0 in
  for v = 0 to n - 1 do
    if Graph.for_all_neighbours (fun u -> label.(u) = 0) g v then
      label.(v) <- 1
  done;
  label

let greedy_matching lg =
  let g = Labelled.graph lg in
  let n = Graph.order g in
  let partner = Array.make n (-1) in
  List.iter
    (fun (u, v) ->
      if partner.(u) < 0 && partner.(v) < 0 then begin
        partner.(u) <- v;
        partner.(v) <- u
      end)
    (Graph.edges g);
  Array.init n (fun v ->
      if partner.(v) < 0 then None
      else begin
        let rec find k =
          if Graph.neighbour g v k = partner.(v) then k else find (k + 1)
        in
        Some (find 0)
      end)

(* A tour of the models of Section 1.3 on two folklore construction
   tasks: orienting the edges of a 1-regular graph (equivalently,
   2-colouring it). The tasks are trivial in LOCAL (compare
   identifiers) and in PO (the orientation is given), impossible for
   Id-oblivious algorithms (both endpoints are symmetric), and the OI
   model sits in between: relative order suffices.

   Run with: dune exec examples/models_tour.exe *)

open Locald_graph
open Locald_local

let matching = Labelled.const (Gen.matching 4) ()

(* LOCAL: colour = "my id is smaller than my neighbour's". *)
let local_two_colouring =
  Algorithm.make ~name:"2col-by-id" ~radius:1 (fun view ->
      let ids = match View.ids view with Some ids -> ids | None -> [||] in
      let g = view.View.graph and c = view.View.center in
      if Graph.degree g c <> 1 then 0
      else if ids.(c) < ids.(Graph.neighbour g c 0) then 0
      else 1)

(* OI: the same algorithm is order-invariant — it only compares. *)
let oi_two_colouring =
  Models.order_invariant ~name:"2col-by-rank" ~radius:1 (fun view ->
      let ids = match View.ids view with Some ids -> ids | None -> [||] in
      let g = view.View.graph and c = view.View.center in
      if Graph.degree g c <> 1 then 0
      else if ids.(c) < ids.(Graph.neighbour g c 0) then 0
      else 1)

(* PO: orient by the given edge orientation. *)
let po_two_colouring =
  {
    Models.po_name = "2col-by-orientation";
    po_decide =
      (fun pov ->
        match pov.Models.incident with
        | [ e ] -> if e.Models.outward then 0 else 1
        | _ -> 0);
  }

let proper colours lg =
  let g = Labelled.graph lg in
  Graph.fold_vertices
    (fun v acc ->
      acc
      && Graph.for_all_neighbours (fun u -> colours.(u) <> colours.(v)) g v)
    g true

let () =
  Format.printf "== Section 1.3 models: 2-colouring a 1-regular graph ==@.";
  let rng = Random.State.make [| 5 |] in
  let n = Labelled.order matching in

  (* LOCAL succeeds under every assignment we try. *)
  let ok = ref true in
  for _ = 1 to 50 do
    let ids = Ids.shuffled rng n in
    if not (proper (Runner.run local_two_colouring matching ~ids) matching) then
      ok := false
  done;
  Format.printf "LOCAL (compare ids):        solves it (50/50 runs): %b@." !ok;

  (* OI succeeds too, and is genuinely order-invariant. *)
  let ok = ref true in
  for _ = 1 to 50 do
    let ids = Ids.shuffled rng n in
    if not (proper (Runner.run oi_two_colouring matching ~ids) matching) then
      ok := false
  done;
  let invariant =
    Models.find_order_variance ~rng ~trials:50 oi_two_colouring matching = None
  in
  Format.printf "OI (compare ranks):         solves it: %b, order-invariant: %b@."
    !ok invariant;

  (* PO succeeds given the orientation. *)
  let oriented = List.init 4 (fun i -> (2 * i, (2 * i) + 1)) in
  let po_out = Models.run_po po_two_colouring matching ~oriented in
  Format.printf "PO (follow orientation):    solves it: %b@." (proper po_out matching);

  (* Id-oblivious: impossible — any oblivious algorithm gives both
     endpoints of an edge the same output. We exhibit the failure of
     every candidate in a small hypothesis class: constant outputs. *)
  let oblivious_fails =
    List.for_all
      (fun c ->
        let out = Array.make n c in
        not (proper out matching))
      [ 0; 1 ]
  in
  Format.printf
    "Id-oblivious:               every candidate fails: %b  (endpoints of an edge@."
    oblivious_fails;
  Format.printf
    "                            have isomorphic views, hence equal outputs)@.";
  let symmetric =
    let v = View.extract matching ~center:0 ~radius:1 in
    let u = View.extract matching ~center:1 ~radius:1 in
    Iso.views_isomorphic ( = ) v u
  in
  Format.printf "                            views of both endpoints isomorphic: %b@."
    symmetric

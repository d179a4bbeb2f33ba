open Locald_graph
open Locald_local

type ('a, 'c) verifier = {
  nv_name : string;
  nv_radius : int;
  nv_decide : ('a * 'c) View.t -> bool;
}

type ('a, 'c) prover = 'a Labelled.t -> 'c array

type ('a, 'c) t = {
  verifier : ('a, 'c) verifier;
  prover : ('a, 'c) prover;
}

let make ~name ~radius nv_decide ~prover =
  { verifier = { nv_name = name; nv_radius = radius; nv_decide }; prover }

let certified lg certificates =
  Labelled.init (Labelled.graph lg) (fun v ->
      (Labelled.label lg v, certificates.(v)))

let accepts_with verifier lg ~certificates =
  let ob =
    Algorithm.make_oblivious ~name:verifier.nv_name ~radius:verifier.nv_radius
      verifier.nv_decide
  in
  Verdict.of_outputs (Runner.run_oblivious ob (certified lg certificates))

let accepts_proved scheme lg =
  accepts_with scheme.verifier lg ~certificates:(scheme.prover lg)

(* Exhaustive refutation through the decide-once memo. A tuple of
   certificates reaches node [v] only through its restriction to [v]'s
   ball, so over all |C|^n tuples node [v] sees just |C|^(ball size)
   distinct decorated balls — keyed by (node, candidate-index
   restriction) and decided once each. A tuple is rejected as soon as
   one node says no, which cannot change the boolean (running the full
   verdict computes all node outputs, but [Verdict.rejects] only asks
   whether one is false). *)
let refuted ?(memo = Locald_runtime.Memo.Exact_ids) ~candidates verifier lg =
  let n = Labelled.order lg in
  let cands = Array.of_list candidates in
  let m = Array.length cands in
  let base =
    Array.init n (fun v ->
        View.extract_mapped lg ~center:v ~radius:verifier.nv_radius)
  in
  let memo =
    match memo with
    | Locald_runtime.Memo.Off -> None
    | Exact_ids | Order_type ->
        (* Certificate indices are not identifiers: order-type
           canonicalisation does not apply, so any memoisation is by
           exact index restriction. *)
        Some (Locald_runtime.Memo.create_node_ids ())
  in
  let node_accepts v (idx : int array) =
    let view, back = base.(v) in
    let key = Array.map (fun u -> idx.(u)) back in
    let compute () =
      verifier.nv_decide
        (View.mapi_labels (fun i x -> (x, cands.(key.(i)))) view)
    in
    match memo with
    | None -> compute ()
    | Some tbl -> Locald_runtime.Memo.find_or_compute tbl (v, key) compute
  in
  let tuple_rejected idx =
    let rec go v = v < n && ((not (node_accepts v idx)) || go (v + 1)) in
    go 0
  in
  (* Candidate-index tuples, in the same order as [assignments]. *)
  let rec index_tuples k () =
    if k = 0 then Seq.Cons ([], Seq.empty)
    else
      Seq.concat_map
        (fun rest -> Seq.init m (fun c -> c :: rest))
        (index_tuples (k - 1))
        ()
  in
  Seq.for_all (fun idx -> tuple_rejected (Array.of_list idx)) (index_tuples n)

let refuted_sampled ~rng ~trials ~candidates verifier lg =
  let n = Labelled.order lg in
  let pool = Array.of_list candidates in
  let rec go k =
    if k >= trials then true
    else
      let certificates =
        Array.init n (fun _ -> pool.(Random.State.int rng (Array.length pool)))
      in
      Verdict.rejects (accepts_with verifier lg ~certificates) && go (k + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Stock schemes                                                       *)
(* ------------------------------------------------------------------ *)

(* Proper 2-colouring as certificate: exists iff bipartite. The
   prover 2-colours by BFS per component (garbage on odd components —
   the verifier rejects there, as it must). *)
let bipartite_prover lg =
  let g = Labelled.graph lg in
  let n = Graph.order g in
  let colour = Array.make n (-1) in
  for v = 0 to n - 1 do
    if colour.(v) < 0 then begin
      colour.(v) <- 0;
      let queue = Queue.create () in
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        Array.iter
          (fun w ->
            if colour.(w) < 0 then begin
              colour.(w) <- 1 - colour.(u);
              Queue.add w queue
            end)
          (Graph.neighbours g u)
      done
    end
  done;
  colour

let bipartite_verify (view : (unit * int) View.t) =
  let _, c = View.center_label view in
  (c = 0 || c = 1)
  && Array.for_all
       (fun u -> snd view.View.labels.(u) <> c)
       (Graph.neighbours view.View.graph view.View.center)

let bipartite_scheme =
  make ~name:"bipartite-certificate" ~radius:1 bipartite_verify
    ~prover:bipartite_prover

let even_cycle_scheme =
  make ~name:"even-cycle-certificate" ~radius:1
    (fun view ->
      Graph.degree view.View.graph view.View.center = 2 && bipartite_verify view)
    ~prover:bipartite_prover

open Locald_graph

type witness = {
  node : int;
  ids_a : Ids.t;
  ids_b : Ids.t;
}

let differing_node outputs_a outputs_b =
  let n = Array.length outputs_a in
  let rec go v =
    if v >= n then None
    else if outputs_a.(v) <> outputs_b.(v) then Some v
    else go (v + 1)
  in
  go 0

let find_variance_sampled ?backend ~rng ~trials ~regime alg lg =
  let n = Labelled.order lg in
  let reference_ids = Ids.sample rng regime ~n in
  let reference = Runner.run ?backend alg lg ~ids:reference_ids in
  let rec go k =
    if k >= trials then None
    else
      let ids = Ids.sample rng regime ~n in
      let outputs = Runner.run ?backend alg lg ~ids in
      match differing_node reference outputs with
      | Some node -> Some { node; ids_a = reference_ids; ids_b = ids }
      | None -> go (k + 1)
  in
  go 0

let find_variance_exhaustive ?backend ~bound alg lg =
  let n = Labelled.order lg in
  (* Rank 0 first; raises [Ids.Invalid_ids] when [bound < n]. *)
  let first = Ids.injection_at ~n ~bound 0 in
  let prep = Runner.prepare ?backend alg lg in
  (* Every assignment against the first, in lexicographic order, views
     extracted once and decides memoised — the witness (first differing
     node of the first differing assignment) is the one a [Runner.run]
     per assignment finds. [r] is stepped in place; each assignment
     handed on is a copy ([Ids.of_array]). *)
  let reference = Runner.run_prepared prep ~ids:first in
  let r = Ids.to_array first and used = Array.make bound false in
  Array.iter (fun c -> used.(c) <- true) r;
  let rec scan () =
    if not (Locald_runtime.Orbit.next_injection ~bound r used) then None
    else
      let ids = Ids.of_array r in
      match differing_node reference (Runner.run_prepared prep ~ids) with
      | Some node -> Some { node; ids_a = first; ids_b = ids }
      | None -> scan ()
  in
  scan ()

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
  let prep = Runner.prepare ?backend alg lg in
  (* Every assignment against the first, views extracted once and
     decides memoised — the witness (first differing node of the first
     differing assignment, in enumeration order) is identical to the
     historical per-assignment [Runner.run] loop. *)
  let all = Ids.enumerate_injections ~n ~bound in
  match all () with
  | Seq.Nil -> None
  | Seq.Cons (first, rest) ->
      let reference = Runner.run_prepared prep ~ids:first in
      let rec scan seq =
        match seq () with
        | Seq.Nil -> None
        | Seq.Cons (ids, rest) -> (
            let outputs = Runner.run_prepared prep ~ids in
            match differing_node reference outputs with
            | Some node -> Some { node; ids_a = first; ids_b = ids }
            | None -> scan rest)
      in
      scan rest

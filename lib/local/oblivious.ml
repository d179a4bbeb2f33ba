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

let find_variance_exhaustive ?(quotient = false) ?backend
    ?(memo = Locald_runtime.Memo.Exact_ids) ~bound alg lg =
  let n = Labelled.order lg in
  let prep = Runner.prepare ~memo ?backend alg lg in
  (* The naive loop: every assignment against the first, views
     extracted once and decides memoised — the witness (first differing
     node of the first differing assignment, in enumeration order) is
     identical to the historical per-assignment [Runner.run] loop. *)
  let naive () =
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
  in
  if not quotient then naive ()
  else begin
    (* Same precondition (and exception) as the assignment enumeration. *)
    ignore (Ids.enumerate_injections ~n ~bound : Ids.t Seq.t);
    (* Ball-local quotient: node [v]'s output varies under global
       reassignment iff it varies across the injective restrictions of
       its own ball — every restriction extends to a global assignment
       ([Locald_runtime.Orbit.extend], sound because [bound >= n]), and a global
       assignment only reaches [v] through its restriction. A per-node
       disagreement is reconstructed to two concrete assignments and
       re-checked on a real run before being reported. *)
    let rec over_nodes v =
      if v >= n then None
      else begin
        let back = Runner.ball_of prep v in
        let k = Array.length back in
        let scan = Runner.restriction_scanner prep v in
        let first = ref true in
        let reference = ref None in
        let differing = ref None in
        let scanned = ref 0 in
        let uniform =
          Locald_runtime.Orbit.for_all_injections ~bound ~k (fun r ->
              incr scanned;
              let o = scan r in
              if !first then begin
                first := false;
                reference := Some o;
                true
              end
              else if o = Option.get !reference then true
              else begin
                differing := Some (Array.copy r);
                false
              end)
        in
        Locald_runtime.Orbit.add_scanned !scanned;
        if uniform then over_nodes (v + 1)
        else begin
          (* The lexicographically first restriction is [0..k-1]. *)
          let r0 = Array.init k Fun.id in
          let r = Option.get !differing in
          let ids_a = Ids.of_array (Locald_runtime.Orbit.extend ~n ~bound ~back r0) in
          let ids_b = Ids.of_array (Locald_runtime.Orbit.extend ~n ~bound ~back r) in
          let out_a = Runner.run_prepared prep ~ids:ids_a in
          let out_b = Runner.run_prepared prep ~ids:ids_b in
          if out_a.(v) <> out_b.(v) then Some { node = v; ids_a; ids_b }
          else
            (* A decide that is not a pure function of its view can
               disagree with itself across runs; the quotient's premise
               fails, so answer naively. *)
            naive ()
        end
      end
    in
    over_nodes 0
  end

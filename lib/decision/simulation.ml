open Locald_graph
open Locald_local
open Locald_runtime

type budget =
  | Exhaustive of int
  | Sampled of { bound : int; trials : int; seed : int }

let a_star ~budget alg =
  let name =
    Printf.sprintf "%s*[%s]" alg.Algorithm.name
      (match budget with
      | Exhaustive b -> Printf.sprintf "exhaustive<%d" b
      | Sampled { bound; trials; _ } -> Printf.sprintf "sampled %dx<%d" trials bound)
  in
  Algorithm.make_oblivious ~name ~radius:alg.Algorithm.radius (fun view ->
      let k = View.order view in
      let says_yes ids = alg.Algorithm.decide (View.reassign_ids view ids) in
      match budget with
      | Exhaustive bound ->
          if k > bound then
            raise
              (Ids.Invalid_ids
                 (Printf.sprintf "cannot inject %d nodes into %d ids" k bound));
          (* The walker's tuple is scratch, and [reassign_ids] keeps the
             array it is given in the view: the decide gets a copy. *)
          Orbit.for_all_injections ~bound ~k (fun r -> says_yes (Array.copy r))
      | Sampled { bound; trials; seed } ->
          let rng = Random.State.make [| seed; k |] in
          let rec go t =
            t >= trials
            || (says_yes (Ids.to_array (Ids.random_below rng ~bound k))
               && go (t + 1))
          in
          go 0)

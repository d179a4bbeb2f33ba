(* Quickstart: define a labelled-graph property, write a radius-1
   local decider for it, and run it in the LOCAL model — by direct view
   extraction and through the asynchronous message-passing backend.

   Run with: dune exec examples/quickstart.exe *)

open Locald_graph
open Locald_local
open Locald_decision

(* The property: the node labels form a proper 3-colouring. *)
let property = Property.proper_colouring ~k:3

(* The decider: each node checks its own colour against its
   neighbours' — a radius-1, Id-oblivious local algorithm. *)
let decider =
  Algorithm.make_oblivious ~name:"3col-check" ~radius:1 (fun view ->
      let c = View.center_label view in
      c >= 0 && c < 3
      && Graph.for_all_neighbours
           (fun u -> view.View.labels.(u) <> c)
           view.View.graph view.View.center)

let show name lg =
  let verdict = Decider.decide_oblivious decider lg in
  Format.printf "%-28s -> %a (membership: %b)@." name Verdict.pp verdict
    (property.Property.mem lg)

let () =
  Format.printf "== Quickstart: local decision of proper 3-colouring ==@.";
  (* A correctly coloured 9-cycle. *)
  let good = Labelled.init (Gen.cycle 9) (fun v -> v mod 3) in
  show "9-cycle, colours v mod 3" good;
  (* A 10-cycle coloured the same way has a clash at the seam. *)
  let bad = Labelled.init (Gen.cycle 10) (fun v -> v mod 3) in
  show "10-cycle, colours v mod 3" bad;
  (* The same algorithm as a full (identifier-carrying) algorithm: the
     two backends must agree. *)
  let alg = Algorithm.of_oblivious decider in
  let rng = Random.State.make [| 42 |] in
  let ids = Ids.shuffled rng (Labelled.order good) in
  let direct = Runner.run alg good ~ids in
  let async =
    Runner.run ~backend:(Backend.Async Async_runner.default_config) alg good ~ids
  in
  Format.printf "direct engine = message-passing engine: %b@." (direct = async);
  (* Membership is isomorphism-invariant, as every property must be. *)
  Format.printf "property is isomorphism-invariant on these instances: %b@."
    (Property.check_invariance ~rng ~trials:20 property good
    && Property.check_invariance ~rng ~trials:20 property bad)

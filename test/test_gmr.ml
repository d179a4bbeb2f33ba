(* Tests for the Section 3 construction G(M, r): assembly, the local
   rules (soundness on genuine instances, rejection of counterfeits),
   the deciders and their fast paths, the neighbourhood generator and
   the randomised decider. *)

open Locald_graph
open Locald_turing
open Locald_local
open Locald_decision
open Locald_core

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

(* A small configuration keeps the tests fast. *)
let small_config =
  { (Gmr.default_config ~r:1) with Gmr.fragment_cap = 40 }

let build ?(config = small_config) m =
  match Gmr.build ~config ~r:1 m with
  | Ok t -> t
  | Error _ -> Alcotest.fail "machine should halt within fuel"

let m_yes = Zoo.two_faced ~steps:2 ~real:0 ~fake:1
let m_no = Zoo.two_faced ~steps:2 ~real:1 ~fake:0

let g_yes = lazy (build m_yes)
let g_no = lazy (build m_no)

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let test_build_shape () =
  let t = Lazy.force g_yes in
  check int "table side is a power of two" 4 t.Gmr.table_side;
  check int "steps" 2 t.Gmr.steps;
  check int "output" 0 t.Gmr.output;
  check bool "has fragments" true (t.Gmr.fragments <> []);
  check bool "connected" true (Graph.is_connected (Labelled.graph t.Gmr.lg));
  (* The pivot is a table cell holding the state-0 head. *)
  check bool "pivot looks like the pivot" true
    (Gmr.pivot_look (Labelled.label t.Gmr.lg t.Gmr.pivot))

let test_build_rejects_divergers () =
  match Gmr.build ~config:small_config ~r:1 Zoo.diverge_right with
  | Error (Exec.Out_of_fuel _) -> ()
  | Error _ -> Alcotest.fail "expected out-of-fuel"
  | Ok _ -> Alcotest.fail "diverger should not build"

let test_build_rejects_inadmissible () =
  let reentrant =
    Machine.make ~name:"reentrant" ~num_states:1 ~num_symbols:1 (fun _ _ ->
        Machine.Step { next = 0; write = 0; move = Machine.Right })
  in
  let raised =
    try ignore (Gmr.build ~config:small_config ~r:1 reentrant); false
    with Gmr.Not_admissible _ -> true
  in
  check bool "state-0 re-entry rejected" true raised

let test_no_start_state_in_fragments () =
  let t = Lazy.force g_yes in
  List.iter
    (fun f ->
      check bool "no start-state cell glued" false (Fragment.contains_start_state f))
    t.Gmr.fragments

let test_fake_halt_fragments_glued () =
  (* The yes-instance's collection shows halts with output 1 even
     though the machine outputs 0: the Section 3 obfuscation. *)
  let t = Lazy.force g_yes in
  let shows_output o f =
    Array.exists
      (Array.exists (fun (c : Cell.t) -> c.Cell.head = Cell.Halted o))
      f.Fragment.cells
  in
  check bool "output-1 windows glued into the yes-instance" true
    (List.exists (shows_output 1) t.Gmr.fragments);
  check bool "output-0 windows present too" true
    (List.exists (shows_output 0) t.Gmr.fragments)

(* ------------------------------------------------------------------ *)
(* Local rules                                                         *)
(* ------------------------------------------------------------------ *)

let test_rules_pass_on_genuine () =
  List.iter
    (fun m ->
      let t = build m in
      match Gmr_check.first_violation t.Gmr.lg with
      | None -> ()
      | Some (v, reason) -> Alcotest.failf "%s: node %d: %s" m.Machine.name v reason)
    [ m_yes; m_no; Zoo.walk ~steps:2 ~output:0; Zoo.zigzag ~half:2 ~output:1 ]

let test_rules_pass_with_all_phases () =
  let config = { small_config with Gmr.all_phases = true; fragment_cap = 10 } in
  let t = build ~config m_yes in
  check bool "all-phase instance passes" true
    (Gmr_check.first_violation t.Gmr.lg = None)

let drop_edge lg (u, v) =
  let g = Labelled.graph lg in
  let edges = List.filter (fun e -> e <> (min u v, max u v)) (Graph.edges g) in
  Labelled.make (Graph.of_edges ~n:(Graph.order g) edges) (Labelled.labels lg)

(* [t] with a table symbol flipped in the middle of the run. *)
let flipped_symbol (t : Gmr.t) =
  Labelled.mapi
    (fun v l ->
      if v <> t.Gmr.pivot then
        match (t.Gmr.provenance.(v), l.Gmr.part) with
        | Gmr.Table_base (1, 1), Gmr.Cell c ->
            { l with Gmr.part = Gmr.Cell { c with cell = { c.cell with Cell.sym = 1 - c.cell.Cell.sym } } }
        | _ -> l
      else l)
    t.Gmr.lg

let test_rules_catch_corruptions () =
  let t = Lazy.force g_yes in
  let lg = t.Gmr.lg in
  (* 1. Flip a table symbol in the middle of the run. *)
  check bool "flipped symbol caught" true
    (Gmr_check.first_violation (flipped_symbol t) <> None);
  (* 2. Remove a pyramid edge. *)
  let apex_child =
    (* The table pyramid's top node and one of its children. *)
    let n = ref (-1) in
    Array.iteri
      (fun v -> function
        | Gmr.Table_pyr c when c.Quadtree.z = 1 && !n < 0 ->
            ignore c;
            n := v
        | _ -> ())
      t.Gmr.provenance;
    !n
  in
  let parent =
    match Graph.neighbours (Labelled.graph lg) apex_child |> Array.to_list
          |> List.filter (fun u ->
                 match t.Gmr.provenance.(u) with
                 | Gmr.Table_pyr c -> c.Quadtree.z = 2
                 | _ -> false)
    with
    | p :: _ -> p
    | [] -> Alcotest.fail "no pyramid parent found"
  in
  let cut = drop_edge lg (apex_child, parent) in
  check bool "missing pyramid edge caught" true (Gmr_check.first_violation cut <> None);
  (* 3. Wrong halting output in the table (delta says 0). *)
  let lied =
    Labelled.map
      (fun l ->
        match l.Gmr.part with
        | Gmr.Cell ({ cell = { Cell.head = Cell.Halted 0; _ } as cell; _ } as c) ->
            { l with Gmr.part = Gmr.Cell { c with cell = { cell with Cell.head = Cell.Halted 1 } } }
        | _ -> l)
      lg
  in
  check bool "forged output caught" true (Gmr_check.first_violation lied <> None)

let test_rules_catch_detached_pivot_edges () =
  (* Remove all gluing edges of one fragment with a non-blank top row:
     its top cells become unglued non-blank top cells. *)
  let t = Lazy.force g_yes in
  let lg = t.Gmr.lg in
  let g = Labelled.graph lg in
  (* Find a glued fragment base cell with non-blank content adjacent
     to the pivot. *)
  let target =
    Graph.neighbours g t.Gmr.pivot |> Array.to_list
    |> List.find_opt (fun u ->
           match (t.Gmr.provenance.(u), (Labelled.label lg u).Gmr.part) with
           | Gmr.Frag_base (_, _, 0), Gmr.Cell { cell; _ } ->
               not (Cell.equal cell Cell.blank)
           | _ -> false)
  in
  match target with
  | None -> () (* no suitable fragment in this small collection *)
  | Some u ->
      let cut = drop_edge lg (t.Gmr.pivot, u) in
      check bool "unglued non-blank top cell caught" true
        (Gmr_check.first_violation cut <> None)

(* g_yes and three counterfeits whose rules fail in different places:
   a flipped table symbol, a base cell cut from its pyramid parent, and
   one glued to a second parent. The last two take [pyr_parent]'s
   no-parent and several-parents branches. *)
let agreement_instances () =
  let t = Lazy.force g_yes in
  let lg = t.Gmr.lg in
  let g = Labelled.graph lg in
  let parent_look u =
    match (Labelled.label lg u).Gmr.part with
    | Gmr.Pyr l -> l.Quadtree.z3 = 1
    | Gmr.Cell _ -> false
  in
  let cell =
    let found = ref (-1) in
    Array.iteri
      (fun v p -> if p = Gmr.Table_base (2, 2) && v <> t.Gmr.pivot then found := v)
      t.Gmr.provenance;
    !found
  in
  let parent =
    match List.filter parent_look (Array.to_list (Graph.neighbours g cell)) with
    | [ p ] -> p
    | _ -> Alcotest.fail "table cell (2, 2) has no unique pyramid parent"
  in
  let other =
    List.find
      (fun q -> parent_look q && q <> parent && not (Graph.mem_edge g cell q))
      (Graph.vertices g)
  in
  let counterfeits =
    [
      ("flipped symbol", flipped_symbol t);
      ("orphan cell", drop_edge lg (cell, parent));
      ("two parents", Labelled.make (Graph.add_edges g [ (cell, other) ]) (Labelled.labels lg));
    ]
  in
  List.iter
    (fun (name, lg) ->
      check bool (name ^ " violates a rule") true (Gmr_check.first_violation lg <> None))
    counterfeits;
  ("g_yes", lg) :: counterfeits

let test_structure_array_agrees_with_per_node () =
  List.iter
    (fun (name, lg) ->
      let fast = Gmr_check.structure_array lg in
      for v = 0 to Labelled.order lg - 1 do
        if fast.(v) <> (Gmr_check.violations_in lg v = []) then
          Alcotest.failf "%s: node %d: one pass and per node disagree" name v
      done)
    (agreement_instances ())

let test_view_rules_agree_with_global () =
  (* The honest radius-2 view evaluation agrees with the whole-graph
     pass, rule for rule, on owned views and on borrowed ones, whose
     labels are lent above 256 nodes. *)
  List.iter
    (fun (name, lg) ->
      let fast = Gmr_check.structure_array lg in
      let lender = View.lender () and lent = ref 0 in
      for v = 0 to Labelled.order lg - 1 do
        let want = List.length (Gmr_check.violations_in lg v) in
        let owned = Gmr_check.violations_view (View.extract lg ~center:v ~radius:2) in
        let borrowed =
          View.with_extract lender lg ~center:v ~radius:2 (fun view ->
              if View.order view > 256 then incr lent;
              Gmr_check.violations_view view)
        in
        if fast.(v) <> (owned = []) || List.length owned <> want || borrowed <> owned then
          Alcotest.failf "%s: node %d: %d violations globally, %d in the view, %d borrowed"
            name v want (List.length owned) (List.length borrowed)
      done;
      check bool (name ^ ": some views have lent labels") true (!lent > 0))
    (agreement_instances ())

(* ------------------------------------------------------------------ *)
(* Deciders                                                            *)
(* ------------------------------------------------------------------ *)

let test_fast_matches_algorithm () =
  let t = Lazy.force g_no in
  let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
  let n = Gmr.order t in
  let rng = Random.State.make [| 9 |] in
  let ids = Ids.shuffled rng n in
  let slow = Decider.decide (Gmr_deciders.ld_decider ()) t.Gmr.lg ~ids in
  let quick = Gmr_deciders.Fast.ld fast ~ids in
  check bool "LD verdicts equal" true (slow = quick);
  let slow_scan = Decider.decide_oblivious (Gmr_deciders.candidate_scan ()) t.Gmr.lg in
  check bool "scan accepts/rejects alike" (Verdict.accepts slow_scan)
    (Verdict.accepts (Gmr_deciders.Fast.scan_candidate fast));
  let slow_fuel =
    Decider.decide_oblivious (Gmr_deciders.candidate_fuel ~fuel:1) t.Gmr.lg
  in
  check bool "fuel candidates agree" (Verdict.accepts slow_fuel)
    (Verdict.accepts (Gmr_deciders.Fast.fuel_candidate fast ~fuel:1))

let test_ld_decider_correct () =
  let rng = Random.State.make [| 10 |] in
  let fy = Gmr_deciders.Fast.prepare (Lazy.force g_yes).Gmr.lg in
  let fn = Gmr_deciders.Fast.prepare (Lazy.force g_no).Gmr.lg in
  for _ = 1 to 10 do
    let ids_y = Ids.sample rng Ids.Unbounded ~n:(Gmr.order (Lazy.force g_yes)) in
    let ids_n = Ids.sample rng Ids.Unbounded ~n:(Gmr.order (Lazy.force g_no)) in
    check bool "accepts yes-instance" true
      (Verdict.accepts (Gmr_deciders.Fast.ld fy ~ids:ids_y));
    check bool "rejects no-instance" true
      (Verdict.rejects (Gmr_deciders.Fast.ld fn ~ids:ids_n))
  done

let test_candidates_fooled () =
  let fy = Gmr_deciders.Fast.prepare (Lazy.force g_yes).Gmr.lg in
  let fn = Gmr_deciders.Fast.prepare (Lazy.force g_no).Gmr.lg in
  (* Scanning for bad halts rejects the YES instance (fake windows). *)
  check bool "scan rejects yes" true
    (Verdict.rejects (Gmr_deciders.Fast.scan_candidate fy));
  (* Fuel 1 < 2 steps: accepts the NO instance. *)
  check bool "short fuel accepts no" true
    (Verdict.accepts (Gmr_deciders.Fast.fuel_candidate fn ~fuel:1));
  (* Generous fuel does reject the no-instance (and correctly accepts
     the yes-instance): the candidate only fails on machines that
     outrun it — which always exist. *)
  check bool "long fuel rejects no" true
    (Verdict.rejects (Gmr_deciders.Fast.fuel_candidate fn ~fuel:50));
  check bool "long fuel accepts yes" true
    (Verdict.accepts (Gmr_deciders.Fast.fuel_candidate fy ~fuel:50))

let test_separation_algorithm () =
  let candidate = Gmr_deciders.candidate_fuel ~fuel:6 in
  let accepts m =
    Gmr_deciders.separation_accepts candidate ~config:small_config ~r:1
      ~side_exp:3 m
  in
  check bool "R accepts the 0-machine" true (accepts m_yes);
  check bool "R rejects the 1-machine" false (accepts m_no);
  (* R is total on divergers. *)
  check bool "R halts on a diverger" true
    (let (_ : bool) = accepts Zoo.diverge_bounce in
     true);
  (* The fooling machine: halts with 1 beyond the candidate's fuel. *)
  check bool "R fooled by a slow machine" true
    (accepts (Zoo.two_faced ~steps:7 ~real:1 ~fake:0))

let test_generator_views_nonempty_and_halting () =
  let views =
    Gmr.generator_views ~config:small_config ~r:1 ~side_exp:3 Zoo.diverge_bounce
  in
  check bool "views for a diverger" true (views <> []);
  let views_halting =
    Gmr.generator_views ~config:small_config ~r:1 ~side_exp:3 m_yes
  in
  check bool "views for a halting machine" true (views_halting <> [])

let test_p3_coverage () =
  (* Every radius-1 view of G(M, 1) that the generator should know
     about appears in B(M, 1) (up to iso), when M halts within the
     window. *)
  let t = Lazy.force g_yes in
  let b_views = Gmr.generator_views ~config:small_config ~r:1 ~side_exp:3 m_yes in
  let g_views = Gmr.all_views t in
  let fwd, _, _ = Gmr.views_covered g_views ~by:b_views in
  let bwd, _, _ = Gmr.views_covered b_views ~by:g_views in
  check bool "B(N,r) = views of G(N,r) when N halts in the window" true (fwd && bwd)

module Canon = Locald_runtime.Canon

(* Two views that agree on (fingerprint, order, size) without being
   isomorphic must stay two classes at any size: the coverage and
   dedupe claims are exact isomorphism claims. Such a pair of 450-node
   trees turns up in a short seeded search, because the fingerprint
   hashes only a prefix of a big view's colour list. Both trees carry
   one label of a built instance, rooted at node 0. *)
let colliding_big_views () =
  let t = Lazy.force g_yes in
  let label = Labelled.label t.Gmr.lg t.Gmr.pivot in
  let canon = Canon.create ~equal:Gmr.equal_label () in
  let rng = Random.State.make [| 42 |] in
  let seen = Hashtbl.create 64 in
  let rec search tries =
    if tries = 0 then Alcotest.fail "no colliding pair of 450-node trees";
    let tree = Gen.random_tree rng 450 in
    let view =
      View.extract (Labelled.init tree (fun _ -> label)) ~center:0 ~radius:450
    in
    let key = Canon.key canon view in
    let signature =
      (Canon.fingerprint key, View.order view, Graph.size view.View.graph)
    in
    match Hashtbl.find_opt seen signature with
    | Some (other, other_key)
      when not (Iso.views_isomorphic Gmr.equal_label other view) ->
        (canon, (other, other_key), (view, key))
    | _ ->
        Hashtbl.replace seen signature (view, key);
        search (tries - 1)
  in
  search 200

let test_big_views_compared_exactly () =
  let canon, (a, ka), (b, kb) = colliding_big_views () in
  check bool "more than 400 nodes" true (View.order a > 400);
  let all, covered, total = Gmr.views_covered [ a ] ~by:[ b ] in
  check (Alcotest.triple bool int int) "a non-isomorphic view is not covered"
    (false, 0, 1) (all, covered, total);
  let set = Canon.classes canon in
  check bool "first view is a class" true (Canon.add set ka);
  check bool "second view is another class" true
    (Canon.add set kb)

(* ------------------------------------------------------------------ *)
(* Membership property and the randomised decider                      *)
(* ------------------------------------------------------------------ *)

let test_r2_construction () =
  (* r = 2: side-8 fragments with height-3 pyramids. *)
  let config = { (Gmr.default_config ~r:2) with Gmr.fragment_cap = 30 } in
  check int "fragment side scales" 8 config.Gmr.fragment_side;
  match Gmr.build ~config ~r:2 (Zoo.two_faced ~steps:2 ~real:0 ~fake:1) with
  | Error _ -> Alcotest.fail "r=2 build failed"
  | Ok t ->
      check bool "rules pass at r=2" true (Gmr_check.first_violation t.Gmr.lg = None);
      let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
      let rng = Random.State.make [| 77 |] in
      let ids = Ids.shuffled rng (Gmr.order t) in
      check bool "LD decider accepts at r=2" true
        (Verdict.accepts (Gmr_deciders.Fast.ld fast ~ids))

let test_all_phases_views_richer () =
  (* Anchor phases multiply the fragment instances and hence the view
     classes available to impersonate interior windows. *)
  let base = { small_config with Gmr.fragment_cap = 10 } in
  let phased = { base with Gmr.all_phases = true } in
  let t_base = build ~config:base m_yes in
  let t_phased = build ~config:phased m_yes in
  check bool "phased instance larger" true (Gmr.order t_phased > Gmr.order t_base);
  check bool "phased instance passes the rules" true
    (Gmr_check.first_violation t_phased.Gmr.lg = None)

let test_generator_agrees_for_fast_machine () =
  (* A machine halting well inside the window: B(N,r) takes the exact
     branch and returns precisely the views of G(N,r). *)
  let m = Zoo.walk ~steps:2 ~output:0 in
  let t = build m in
  let b = Gmr.generator_views ~config:small_config ~r:1 ~side_exp:4 m in
  let g = Gmr.all_views t in
  check int "same number of classes" (List.length g) (List.length b)

let test_property_membership () =
  let property = Gmr_deciders.property ~r:1 ~config:small_config in
  check bool "yes-instance in P" true (property.Property.mem (Lazy.force g_yes).Gmr.lg);
  check bool "no-instance not in P" false (property.Property.mem (Lazy.force g_no).Gmr.lg)

let test_corollary1_rates () =
  let rng = Random.State.make [| 11 |] in
  let fy = Gmr_deciders.Fast.prepare (Lazy.force g_yes).Gmr.lg in
  let fn = Gmr_deciders.Fast.prepare (Lazy.force g_no).Gmr.lg in
  (* One-sided: yes-instances always accepted. *)
  for _ = 1 to 30 do
    check bool "yes always accepted" true
      (Verdict.accepts (Gmr_deciders.Fast.corollary1 fy rng))
  done;
  (* No-instances rejected with good probability: here the machine
     halts in 2 steps, so any node with l_v >= 1 suffices (fuel 4 > 2)
     — rejection is essentially certain over thousands of nodes. *)
  let rejected = ref 0 in
  for _ = 1 to 30 do
    if Verdict.rejects (Gmr_deciders.Fast.corollary1 fn rng) then incr rejected
  done;
  check bool "no-instances rejected w.h.p." true (!rejected >= 29)

(* ------------------------------------------------------------------ *)
(* The Section 3 warm-up promise problem                               *)
(* ------------------------------------------------------------------ *)

let test_tm_promise () =
  let fuel = 64 in
  let promise = Tm_promise.promise ~fuel in
  let diverger = Tm_promise.instance ~machine:Zoo.diverge_bounce ~n:5 in
  let halter = Tm_promise.instance ~machine:(Zoo.walk ~steps:4 ~output:0) ~n:6 in
  check bool "diverger satisfies the promise" true
    (promise.Locald_decision.Promise.promise diverger);
  check bool "big-enough cycle satisfies the promise" true
    (promise.Locald_decision.Promise.promise halter);
  check bool "short cycle violates the promise" false
    (promise.Locald_decision.Promise.promise
       (Tm_promise.instance ~machine:(Zoo.walk ~steps:10 ~output:0) ~n:4));
  check bool "membership = divergence" true
    (promise.Locald_decision.Promise.mem diverger
    && not (promise.Locald_decision.Promise.mem halter));
  (* The LD decider: correct on both under sampled assignments. *)
  let rng = Random.State.make [| 13 |] in
  let decider = Tm_promise.ld_decider () in
  let eval expected lg =
    Decider.all_correct
      (Decider.evaluate ~rng ~regime:Ids.Unbounded ~assignments:25 decider
         ~expected ~instance:"" lg)
  in
  check bool "accepts the diverger" true (eval true diverger);
  check bool "rejects the halter" true (eval false halter);
  (* The oblivious candidate is fooled by a machine beyond its fuel. *)
  let fooling = Tm_promise.fooling_machine ~fuel:8 in
  let lg = Tm_promise.instance ~machine:fooling ~n:12 in
  check bool "candidate accepts a halting instance" true
    (Verdict.accepts
       (Decider.decide_oblivious (Tm_promise.oblivious_candidate ~fuel:8) lg))

(* ------------------------------------------------------------------ *)
(* Random machines through the whole pipeline                          *)
(* ------------------------------------------------------------------ *)

let tiny_config =
  { small_config with Gmr.fragment_cap = 25; fuel = 20 }

let prop_random_machines_full_pipeline =
  QCheck2.Test.make ~name:"random halting machines build valid instances"
    ~count:60 Machine_gen.machine_gen (fun m ->
      match Machine_gen.behaviour ~fuel:20 m with
      | Machine_gen.Crashes | Machine_gen.Diverges_within _ ->
          (* Only halting machines yield instances; divergers must
             still be rejected cleanly by the builder. *)
          (match Gmr.build ~config:tiny_config ~r:1 m with
          | Error _ -> true
          | Ok _ -> false)
      | Machine_gen.Halts { output; steps } -> (
          match Gmr.build ~config:tiny_config ~r:1 m with
          | Error _ -> false
          | Ok t ->
              t.Gmr.output = output && t.Gmr.steps = steps
              && Gmr_check.first_violation t.Gmr.lg = None))

let prop_random_machines_ld_correct =
  QCheck2.Test.make ~name:"LD decider correct on random halting machines"
    ~count:40 Machine_gen.machine_gen (fun m ->
      match Machine_gen.behaviour ~fuel:20 m with
      | Machine_gen.Crashes | Machine_gen.Diverges_within _ -> true
      | Machine_gen.Halts { output; _ } -> (
          match Gmr.build ~config:tiny_config ~r:1 m with
          | Error _ -> false
          | Ok t ->
              let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
              let rng = Random.State.make [| Hashtbl.hash m.Machine.name |] in
              let ids = Ids.shuffled rng (Gmr.order t) in
              Verdict.accepts (Gmr_deciders.Fast.ld fast ~ids) = (output = 0)))

let prop_random_machines_window_rules =
  QCheck2.Test.make ~name:"random machines: tables satisfy their own rules"
    ~count:60 Machine_gen.machine_gen (fun m ->
      match Machine_gen.behaviour ~fuel:24 m with
      | Machine_gen.Crashes | Machine_gen.Diverges_within _ -> true
      | Machine_gen.Halts _ -> (
          match Table.of_machine ~fuel:24 m with
          | Error _ -> false
          | Ok table ->
              let padded = Table.pad_to_power_of_two table in
              Table.validate m padded.Table.cells = []
              && List.for_all
                   (Fragment.reconstructible m)
                   (Fragment.of_windows m padded ~w:3 ~h:3)))

let qcheck_pipeline =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_machines_full_pipeline;
      prop_random_machines_ld_correct;
      prop_random_machines_window_rules;
    ]

let () =
  Alcotest.run "gmr"
    [
      ( "construction",
        [
          Alcotest.test_case "shape" `Quick test_build_shape;
          Alcotest.test_case "divergers rejected" `Quick test_build_rejects_divergers;
          Alcotest.test_case "inadmissible machines rejected" `Quick
            test_build_rejects_inadmissible;
          Alcotest.test_case "no start state in fragments" `Quick
            test_no_start_state_in_fragments;
          Alcotest.test_case "fake-halt fragments glued" `Quick
            test_fake_halt_fragments_glued;
        ] );
      ( "local-rules",
        [
          Alcotest.test_case "pass on genuine instances" `Quick test_rules_pass_on_genuine;
          Alcotest.test_case "pass with all phases" `Quick test_rules_pass_with_all_phases;
          Alcotest.test_case "catch corruptions" `Quick test_rules_catch_corruptions;
          Alcotest.test_case "catch unglued fragments" `Quick
            test_rules_catch_detached_pivot_edges;
          Alcotest.test_case "fast pass = per-node pass" `Quick
            test_structure_array_agrees_with_per_node;
          Alcotest.test_case "view rules = global rules" `Quick
            test_view_rules_agree_with_global;
        ] );
      ( "deciders",
        [
          Alcotest.test_case "fast = honest algorithms" `Quick test_fast_matches_algorithm;
          Alcotest.test_case "LD decider correct" `Quick test_ld_decider_correct;
          Alcotest.test_case "candidates fooled" `Quick test_candidates_fooled;
          Alcotest.test_case "separation algorithm R" `Quick test_separation_algorithm;
          Alcotest.test_case "generator totality" `Quick
            test_generator_views_nonempty_and_halting;
          Alcotest.test_case "(P3) coverage" `Quick test_p3_coverage;
          Alcotest.test_case "r = 2 construction" `Quick test_r2_construction;
          Alcotest.test_case "anchor phases" `Quick test_all_phases_views_richer;
          Alcotest.test_case "exact generator branch" `Quick
            test_generator_agrees_for_fast_machine;
          Alcotest.test_case "big views compared exactly" `Quick
            test_big_views_compared_exactly;
        ] );
      ( "property-and-randomness",
        [
          Alcotest.test_case "membership" `Quick test_property_membership;
          Alcotest.test_case "Corollary 1 rates" `Quick test_corollary1_rates;
        ] );
      ("tm-promise", [ Alcotest.test_case "warm-up problem" `Quick test_tm_promise ]);
      ("random-machines", qcheck_pipeline);
    ]

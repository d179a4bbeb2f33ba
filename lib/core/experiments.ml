open Locald_graph
open Locald_turing
open Locald_local
open Locald_decision
module Ti = Tree_instances

let default_seed = 0x10ca1d

let rng ?(seed = default_seed) () = Random.State.make [| seed |]

(* ------------------------------------------------------------------ *)
(* T1: the results table                                               *)
(* ------------------------------------------------------------------ *)

type cell_result = {
  cell : string;
  relation : string;
  evidence : (string * bool) list;
}

(* (B, C) and (B, notC): the Section 2 construction separates, for any
   bound function — computable or oracle. *)
let cell_bc ?backend ?seed ~regime ~quick ~name () =
  let p2 = { Ti.regime; arity = 2; r = (if quick then 1 else 2) } in
  let rng = rng ?seed () in
  let verifier = Tree_deciders.pprime_verifier p2 in
  let decider = Tree_deciders.p_decider p2 in
  let tr = Ti.big_tree p2 in
  let apexes = Ti.apexes p2 in
  let some_apex = List.nth apexes (List.length apexes / 2) in
  let smalls_sample =
    (* The apex count is exponential in R(r); a stride sample keeps the
       experiment linear while still touching every level. *)
    let stride = max 1 (List.length apexes / if quick then 8 else 64) in
    List.filteri (fun i _ -> i mod stride = 0) apexes
    |> List.map (fun apex -> Ti.small_instance p2 ~apex)
  in
  let assignments = if quick then 10 else 40 in
  let eval expected lg =
    Decider.all_correct
      (Decider.evaluate ?backend ~rng ~regime ~assignments decider
         ~expected ~instance:"" lg)
  in
  let coverage_params = { Ti.regime; arity = 1; r = (if quick then 4 else 6) } in
  let cov = Tree_deciders.coverage coverage_params ~t:1 in
  let rr = Ti.depth p2 in
  let big_budget =
    Tree_deciders.budgeted_a_star p2 ~budget:(2 * rr) ~trials:(if quick then 32 else 64)
  in
  let small_budget =
    Tree_deciders.budgeted_a_star p2 ~budget:rr ~trials:(if quick then 32 else 64)
  in
  {
    cell = name;
    relation = "LD* <> LD";
    evidence =
      [
        ("pigeonhole R(r) valid", Bound.pigeonhole_holds ~regime ~arity:2 ~r:p2.Ti.r);
        ( "P' in LD*: verifier accepts small and large",
          Verdict.accepts (Decider.decide_oblivious verifier tr)
          && List.for_all
               (fun h -> Verdict.accepts (Decider.decide_oblivious verifier h))
               smalls_sample );
        ( "P' in LD*: verifier rejects counterfeits",
          (* Only genuine counterfeits count: [pivot_on_interior]
             degenerates to a valid instance when the cone has no
             interior (e.g. r = 1). *)
          [
            Ti.cone_without_pivot p2 ~apex:some_apex;
            Ti.two_pivots p2 ~apex:some_apex;
            Ti.pivot_on_interior p2 ~apex:(0, 1);
            Ti.truncated_tree p2 ~keep_depth:(rr - 1);
          ]
          |> List.filter (fun lg -> Ti.classify p2 lg = Ti.Neither)
          |> List.for_all (fun lg ->
                 Verdict.rejects (Decider.decide_oblivious verifier lg)) );
        ( "P in LD: decider correct on all sampled assignments",
          eval false tr && List.for_all (eval true) smalls_sample );
        ( "P not in LD*: every t-view of T_r occurs in H_r",
          cov.Tree_deciders.covered = cov.Tree_deciders.total_views );
        ( "A* with large budget rejects a small instance",
          match big_budget with
          | Tree_deciders.Rejects_small _ -> true
          | Tree_deciders.Accepts_large | Tree_deciders.No_failure_found -> false );
        ( "A* with small budget accepts T_r",
          match small_budget with
          | Tree_deciders.Accepts_large -> true
          | Tree_deciders.Rejects_small _ | Tree_deciders.No_failure_found -> false );
      ];
  }

(* (notB, C): the Section 3 construction separates. *)
let cell_nbc ?seed ~quick () =
  let r = 1 in
  let rng = rng ?seed () in
  let steps = if quick then 2 else 3 in
  let config =
    { (Gmr.default_config ~r) with
      Gmr.fragment_cap = (if quick then 60 else 200) }
  in
  let m_yes = Zoo.two_faced ~steps ~real:0 ~fake:1 in
  let m_no = Zoo.two_faced ~steps ~real:1 ~fake:0 in
  let build m =
    match Gmr.build ~config ~r m with Ok t -> t | Error _ -> assert false
  in
  let g_yes = build m_yes and g_no = build m_no in
  let fast_yes = Gmr_deciders.Fast.prepare g_yes.Gmr.lg in
  let fast_no = Gmr_deciders.Fast.prepare g_no.Gmr.lg in
  let assignments = if quick then 5 else 20 in
  let eval expected fast (t : Gmr.t) =
    let ok = ref true in
    for _ = 1 to assignments do
      let ids = Ids.sample rng Ids.Unbounded ~n:(Gmr.order t) in
      let verdict = Gmr_deciders.Fast.ld fast ~ids in
      if Verdict.accepts verdict <> expected then ok := false
    done;
    !ok
  in
  {
    cell = "(notB, C)";
    relation = "LD* <> LD";
    evidence =
      [
        ("local rules pass on G(M0,r)", Array.for_all Fun.id (Gmr_check.structure_array g_yes.Gmr.lg));
        ("local rules pass on G(M1,r)", Array.for_all Fun.id (Gmr_check.structure_array g_no.Gmr.lg));
        ("P in LD: decider accepts G(M0,r)", eval true fast_yes g_yes);
        ("P in LD: decider rejects G(M1,r)", eval false fast_no g_no);
        ( "obfuscation: halt-scanning candidate rejects the yes-instance",
          Verdict.rejects (Gmr_deciders.Fast.scan_candidate fast_yes) );
        ( "fuel-bounded candidate accepts the no-instance",
          Verdict.accepts
            (Gmr_deciders.Fast.fuel_candidate fast_no ~fuel:(steps - 1)) );
        ( "generator B halts on a diverging machine",
          Gmr.generator_views ~config ~dedupe:false ~r
            ~side_exp:(if quick then 3 else 4)
            Zoo.diverge_bounce
          <> [] );
      ];
  }

(* (notB, notC): the Id-oblivious simulation works. The witness
   decider blames the minimum-identifier endpoint of a violated edge
   in a 2-colouring — genuinely Id-dependent node outputs, removable
   by A*. *)
let two_colouring_blaming_decider () =
  Algorithm.make ~name:"2col-min-id-blames" ~radius:1 (fun view ->
      let g = view.View.graph in
      let c = view.View.center in
      let colour v = view.View.labels.(v) in
      let violating_with u = colour u = colour c in
      (* Yes unless this node carries the smaller identifier of some
         violated edge. Identifier reads go through the instrumented
         accessor so the certifier can witness them. *)
      not
        (Graph.exists_neighbour
           (fun u -> violating_with u && View.id view c < View.id view u)
           g c))

let cell_nbnc ?backend ?seed ~quick () =
  let rng = rng ?seed () in
  let alg = two_colouring_blaming_decider () in
  let property = Property.proper_colouring ~k:2 in
  let budget = Simulation.Exhaustive 5 in
  let simulated = Simulation.a_star ~budget alg in
  let instances =
    let path_coloured n ok =
      let colours =
        Array.init n (fun v -> if ok then v mod 2 else if v = n - 1 then (v + 1) mod 2 else v mod 2)
      in
      Labelled.make (Gen.path n) colours
    in
    let sizes = if quick then [ 4; 5 ] else [ 4; 5; 7; 8 ] in
    List.concat_map (fun n -> [ path_coloured n true; path_coloured n false ]) sizes
  in
  let decides_correctly lg =
    Verdict.accepts (Decider.decide_oblivious simulated lg)
    = property.Property.mem lg
  in
  let id_dependence =
    List.exists
      (fun lg ->
        (not (property.Property.mem lg))
        && Option.is_some
             (Oblivious.find_variance_sampled ?backend ~rng ~trials:60
                ~regime:Ids.Unbounded alg lg))
      instances
  in
  let base_correct =
    List.for_all
      (fun lg ->
        let e =
          Decider.evaluate ?backend ~rng ~regime:Ids.Unbounded
            ~assignments:(if quick then 8 else 25)
            alg
            ~expected:(property.Property.mem lg)
            ~instance:"" lg
        in
        Decider.all_correct e)
      instances
  in
  {
    cell = "(notB, notC)";
    relation = "LD* = LD";
    evidence =
      [
        ("witness decider is correct but not Id-oblivious", base_correct && id_dependence);
        ( "A* decides the same property obliviously",
          List.for_all decides_correctly instances );
      ];
  }

let table1 ?backend ?(quick = false) ?seed () =
  [
    cell_bc ?backend ?seed ~regime:(Ids.f_linear_plus 1) ~quick
      ~name:"(B, C)" ();
    cell_bc ?backend ?seed ~regime:(Ids.f_oracle ~seed:7) ~quick
      ~name:"(B, notC)" ();
    cell_nbc ?seed ~quick ();
    cell_nbnc ?backend ?seed ~quick ();
  ]

(* ------------------------------------------------------------------ *)
(* F1: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

type fig1_row = {
  arity : int;
  r : int;
  t : int;
  depth : int;
  tree_nodes : int;
  small_instances : int;
  covered : int;
  total : int;
  expected_full : bool;
}

let fig1_row ~regime ~arity ~r ~t =
  let p = { Ti.regime; arity; r } in
  let d = Ti.depth p in
  let cov = Tree_deciders.coverage p ~t in
  {
    arity;
    r;
    t;
    depth = d;
    tree_nodes = Bound.tree_size ~arity ~depth:d;
    small_instances = List.length (Ti.apexes p);
    covered = cov.Tree_deciders.covered;
    total = cov.Tree_deciders.total_views;
    expected_full = t = 0 || r >= 2 * t;
  }

let fig1 ?(quick = false) () =
  let regime = Ids.f_linear_plus 1 in
  let arity2 = if quick then [ (2, 1, 0) ] else [ (2, 0, 0); (2, 1, 0); (2, 2, 0) ] in
  let arity1 =
    if quick then [ (1, 4, 1); (1, 1, 1) ]
    else [ (1, 2, 1); (1, 4, 1); (1, 6, 1); (1, 4, 2); (1, 6, 2); (1, 8, 2);
           (1, 1, 1); (1, 3, 2) ]
  in
  List.map
    (fun (arity, r, t) -> fig1_row ~regime ~arity ~r ~t)
    (arity2 @ arity1)

(* ------------------------------------------------------------------ *)
(* F2: Figure 2                                                        *)
(* ------------------------------------------------------------------ *)

type fig2_row = {
  machine : string;
  steps : int;
  output : int;
  table_side : int;
  fragments : int;
  fake_windows : int;
  nodes : int;
  edges : int;
  rules_ok : bool;
}

let fig2_machines ~quick =
  if quick then [ Zoo.two_faced ~steps:2 ~real:0 ~fake:1 ]
  else
    [
      Zoo.walk ~steps:2 ~output:0;
      Zoo.two_faced ~steps:3 ~real:0 ~fake:1;
      Zoo.two_faced ~steps:3 ~real:1 ~fake:0;
      Zoo.zigzag ~half:2 ~output:0;
      Zoo.sweeper ~width:4 ~sweeps:3 ~output:1;
      Zoo.binary_counter ~bits:2;
    ]

let fig2 ?(quick = false) () =
  fig2_machines ~quick
  |> List.filter_map (fun m ->
         match Gmr.build ~r:1 m with
         | Error _ -> None
         | Ok t ->
             let fake_windows =
               List.length
                 (List.filter
                    (fun f ->
                      Array.exists
                        (Array.exists (fun (c : Cell.t) ->
                             match c.Cell.head with
                             | Cell.Halted o -> o <> t.Gmr.output
                             | Cell.Head _ | Cell.No_head -> false))
                        f.Fragment.cells)
                    t.Gmr.fragments)
             in
             Some
               {
                 machine = m.Machine.name;
                 steps = t.Gmr.steps;
                 output = t.Gmr.output;
                 table_side = t.Gmr.table_side;
                 fragments = List.length t.Gmr.fragments;
                 fake_windows;
                 nodes = Gmr.order t;
                 edges = Gmr.size t;
                 rules_ok = Gmr_check.structure_ok t;
               })

(* ------------------------------------------------------------------ *)
(* F3: Figure 3                                                        *)
(* ------------------------------------------------------------------ *)

type fig3_row = {
  h : int;
  side : int;
  nodes : int;
  pyramid_overhead : float;
  grid_diameter : int;
  pyramid_diameter : int;
  genuine_ok : bool;
  torus_rejected : bool;
}

let classify_pyramid ~h v =
  let c = Quadtree.coord_of_index ~h v in
  let l = Quadtree.label_of_coord c in
  if c.Quadtree.z = 0 then Quadtree.Bottom (l.Quadtree.m6x, l.Quadtree.m6y)
  else Quadtree.Upper l

let quadtree_ok ~h lg =
  let g = Labelled.graph lg in
  let classify = classify_pyramid ~h in
  let rec go v =
    if v >= Labelled.order lg then true
    else Quadtree.inspect ~classify g v = [] && go (v + 1)
  in
  go 0

let torus_counterfeit ~h =
  (* A torus wearing grid labels, without any pyramid: the nodes have
     no parents, which the rules catch immediately. *)
  let side = Quadtree.side ~h in
  let g = Gen.torus side side in
  Labelled.init g (fun v ->
      Quadtree.label_of_coord
        { Quadtree.x = v mod side; y = v / side; z = 0 })

let torus_rejected ~h =
  let lg = torus_counterfeit ~h in
  let g = Labelled.graph lg in
  let classify v =
    let l = Labelled.label lg v in
    Quadtree.Bottom (l.Quadtree.m6x, l.Quadtree.m6y)
  in
  let some_violation = ref false in
  for v = 0 to Labelled.order lg - 1 do
    if Quadtree.inspect ~classify g v <> [] then some_violation := true
  done;
  !some_violation

let fig3 ?(quick = false) () =
  let hs = if quick then [ 1; 2 ] else [ 1; 2; 3; 4; 5 ] in
  List.map
    (fun h ->
      let side = Quadtree.side ~h in
      let lg = Quadtree.labelled ~h () in
      let g = Labelled.graph lg in
      {
        h;
        side;
        nodes = Graph.order g;
        pyramid_overhead = float_of_int (Graph.order g) /. float_of_int (side * side);
        grid_diameter = 2 * (side - 1);
        pyramid_diameter = Graph.diameter g;
        genuine_ok = quadtree_ok ~h lg;
        torus_rejected = (if side >= 3 then torus_rejected ~h else true);
      })
    hs

(* ------------------------------------------------------------------ *)
(* C1: Corollary 1                                                     *)
(* ------------------------------------------------------------------ *)

type corollary1_row = {
  machine : string;
  n : int;
  expected : bool;
  runs : int;
  success : float;
  theory_bound : float;
}

let corollary1 ?(quick = false) ?seed () =
  let rng = rng ?seed () in
  let machines =
    if quick then [ (Zoo.two_faced ~steps:2 ~real:1 ~fake:0, false) ]
    else
      [
        (Zoo.two_faced ~steps:2 ~real:0 ~fake:1, true);
        (Zoo.two_faced ~steps:2 ~real:1 ~fake:0, false);
        (Zoo.walk ~steps:5 ~output:1, false);
        (Zoo.zigzag ~half:3 ~output:1, false);
      ]
  in
  let runs = if quick then 10 else 100 in
  List.filter_map
    (fun (m, expected) ->
      match Gmr.build ~r:1 m with
      | Error _ -> None
      | Ok t ->
          let fast = Gmr_deciders.Fast.prepare t.Gmr.lg in
          (* Monte-Carlo runs are independent: each gets its own coin
             stream, seeded sequentially before the fan-out so the
             estimate is identical at any job count. *)
          let run_seeds = Locald_runtime.Pool.split_seeds rng runs in
          let outcomes =
            Locald_runtime.Pool.map
              (fun s ->
                let run_rng = Random.State.make [| s |] in
                Verdict.accepts (Gmr_deciders.Fast.corollary1 fast run_rng)
                = expected)
              run_seeds
          in
          let successes =
            Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 outcomes
          in
          let n = Gmr.order t in
          let theory_bound =
            if expected then 1.0
            else 1.0 -. ((1.0 -. (1.0 /. sqrt (float_of_int n))) ** float_of_int n)
          in
          Some
            {
              machine = m.Machine.name;
              n;
              expected;
              runs;
              success = float_of_int successes /. float_of_int runs;
              theory_bound;
            })
    machines

(* ------------------------------------------------------------------ *)
(* P3: generator coverage                                              *)
(* ------------------------------------------------------------------ *)

type p3_row = {
  machine : string;
  halts_in_window : bool;
  g_classes : int;
  b_classes : int;
  g_covered_by_b : int;
  b_covered_by_g : int;
}

let p3 ?(quick = false) () =
  let r = 1 in
  let config =
    { (Gmr.default_config ~r) with Gmr.fragment_cap = (if quick then 30 else 60) }
  in
  let side_exp = 3 in
  let machines =
    if quick then [ Zoo.two_faced ~steps:2 ~real:0 ~fake:1 ]
    else
      [
        Zoo.two_faced ~steps:2 ~real:0 ~fake:1;
        Zoo.two_faced ~steps:2 ~real:1 ~fake:0;
        Zoo.walk ~steps:3 ~output:0;
        Zoo.zigzag ~half:2 ~output:1;
      ]
  in
  List.filter_map
    (fun m ->
      match Gmr.build ~config ~r m with
      | Error _ -> None
      | Ok t ->
          let halts_in_window = t.Gmr.table_side <= 1 lsl side_exp in
          let g_views = Gmr.all_views t in
          let b_views = Gmr.generator_views ~config ~r ~side_exp m in
          let _, g_covered_by_b, _ = Gmr.views_covered g_views ~by:b_views in
          let _, b_covered_by_g, _ = Gmr.views_covered b_views ~by:g_views in
          Some
            {
              machine = m.Machine.name;
              halts_in_window;
              g_classes = List.length g_views;
              b_classes = List.length b_views;
              g_covered_by_b;
              b_covered_by_g;
            })
    machines

(* ------------------------------------------------------------------ *)
(* D: the fuel diagonalisation                                         *)
(* ------------------------------------------------------------------ *)

type diagonal_row = {
  fuel : int;
  fooling_machine : string;
  fooled : bool;
  honest_on_fast : bool;
}

let fuel_diagonal ?(quick = false) () =
  let r = 1 in
  let config =
    { (Gmr.default_config ~r) with
      Gmr.fragment_cap = (if quick then 30 else 60);
      fuel = 256;
    }
  in
  let fuels = if quick then [ 2; 4 ] else [ 1; 2; 4; 8; 16 ] in
  List.filter_map
    (fun fuel ->
      (* The fooling machine halts with output 1 just beyond the
         candidate's fuel; the honest check uses a machine well within
         the fuel. *)
      let slow = Zoo.two_faced ~steps:(fuel + 1) ~real:1 ~fake:0 in
      let fast = Zoo.two_faced ~steps:(fuel - 1) ~real:1 ~fake:0 in
      match (Gmr.build ~config ~r slow, Gmr.build ~config ~r fast) with
      | Ok g_slow, Ok g_fast ->
          let fast_slow = Gmr_deciders.Fast.prepare g_slow.Gmr.lg in
          let fast_fast = Gmr_deciders.Fast.prepare g_fast.Gmr.lg in
          Some
            {
              fuel;
              fooling_machine = slow.Machine.name;
              fooled =
                Verdict.accepts
                  (Gmr_deciders.Fast.fuel_candidate fast_slow ~fuel);
              honest_on_fast =
                Verdict.rejects
                  (Gmr_deciders.Fast.fuel_candidate fast_fast ~fuel);
            }
      | _, _ -> None)
    fuels

(* ------------------------------------------------------------------ *)
(* K: the constructive side (Section 1.3 context)                      *)
(* ------------------------------------------------------------------ *)

type construction_row = {
  task : string;
  n : int;
  ok : bool;        (** output validates *)
  rounds : int;     (** rounds used (CV iterations for Cole-Vishkin) *)
  messages : int;   (** directed sends, where metered (0 otherwise) *)
}

let construction ?(quick = false) ?seed () =
  let rng = rng ?seed () in
  let sizes = if quick then [ 16; 64 ] else [ 16; 64; 256; 1024 ] in
  let cv_rows =
    List.map
      (fun n ->
        let ids = Locald_local.Ids.shuffled rng n in
        let cols, _, stable = Locald_local.Symmetry.run_on_cycle ~n ~ids () in
        {
          task = "Cole-Vishkin 3-colouring (cycle)";
          n;
          ok = Locald_local.Symmetry.is_proper_colouring (Gen.cycle n) cols ~k:3;
          rounds = stable;
          messages = 0;
        })
      sizes
  in
  let luby_rows =
    List.map
      (fun n ->
        let g = Gen.random_connected rng ~n ~p:(8.0 /. float_of_int n) in
        let ids = Locald_local.Ids.shuffled rng n in
        let labels, outcome =
          Locald_local.Symmetry.run_luby ~seed:(n + 1) ~max_rounds:200 g ~ids
        in
        let lg = Labelled.make g labels in
        {
          task = "Luby MIS (random graph)";
          n;
          ok =
            outcome.Locald_local.Protocol.all_halted
            && Property.maximal_independent_set.Property.mem lg;
          rounds = outcome.Locald_local.Protocol.rounds_used;
          messages = 0;
        })
      sizes
  in
  let gossip_rows =
    List.map
      (fun side ->
        let g = Gen.grid side side in
        let n = Graph.order g in
        let lg = Labelled.init g (fun v -> v mod 4) in
        let ids = Locald_local.Ids.shuffled rng n in
        let alg =
          Locald_local.Algorithm.make ~name:"fingerprint" ~radius:2 (fun view ->
              Iso.view_signature Hashtbl.hash view)
        in
        let _, stats = Fault_runner.run ~plan:Faults.empty alg lg ~ids in
        {
          task = "full-information gossip (grid, t=2)";
          n;
          ok = true;
          rounds = stats.Fault_runner.rounds;
          messages = stats.Fault_runner.messages;
        })
      (if quick then [ 4; 6 ] else [ 4; 8; 12 ])
  in
  cv_rows @ luby_rows @ gossip_rows

(* ------------------------------------------------------------------ *)
(* OI: order-invariant algorithms also fail under (B)                  *)
(* ------------------------------------------------------------------ *)

type oi_row = { check : string; ok : bool }

(* Identifiers help the Section 2 decider only through their
   magnitude. The OI model (Section 1.3) erases magnitude and keeps
   relative order — and with it the separation collapses back to the
   Id-oblivious situation: within a view, ranks are always
   0..k-1-shaped, so the coverage obstruction applies verbatim. *)
let order_invariance ?backend ?(quick = false) ?seed () =
  let rng = rng ?seed () in
  let regime = Ids.f_linear_plus 1 in
  let p = { Ti.regime; arity = 2; r = (if quick then 1 else 1) } in
  let decider = Tree_deciders.p_decider p in
  let tr = Ti.big_tree p in
  (* 1. The LD decider is not order-invariant: monotone re-embeddings
     flip outputs on T_r (the threshold reads magnitude). *)
  let not_oi =
    Option.is_some
      (Locald_local.Models.find_order_variance ?backend ~rng ~trials:80
         decider tr)
  in
  (* 2. The rank-normalised (OI) version of the same decider accepts
     T_r — wrongly — because ranks within a view are tiny. *)
  let oi_candidate =
    Locald_local.Models.order_invariant ~name:"P-decider-by-rank" ~radius:1
      decider.Locald_local.Algorithm.decide
  in
  let ids = Ids.sample rng regime ~n:(Labelled.order tr) in
  let accepts_tr =
    Verdict.accepts (Decider.decide ?backend decider tr ~ids) = false
    && Verdict.accepts (Decider.decide ?backend oi_candidate tr ~ids)
  in
  (* ... while still accepting the small instances (so it is not just
     broken). *)
  let ok_on_small =
    let h = Ti.small_instance p ~apex:(0, 1) in
    let ids = Ids.sample rng regime ~n:(Labelled.order h) in
    Verdict.accepts (Decider.decide ?backend oi_candidate h ~ids)
  in
  [
    { check = "LD decider reads magnitude (not order-invariant)"; ok = not_oi };
    {
      check = "rank-normalised decider accepts small instances";
      ok = ok_on_small;
    };
    {
      check = "rank-normalised decider wrongly accepts T_r (OI separation)";
      ok = accepts_tr;
    };
  ]

(* ------------------------------------------------------------------ *)
(* H: hereditariness of the witness properties                         *)
(* ------------------------------------------------------------------ *)

type hereditary_row = {
  property_name : string;
  instance : string;
  hereditary_looking : bool;  (** no violating induced subgraph found *)
  expected_hereditary : bool;
}

let hereditary ?(quick = false) ?seed () =
  let rng = rng ?seed () in
  let samples = if quick then 40 else 150 in
  let regime = Ids.f_linear_plus 1 in
  let p2 = { Ti.regime; arity = 2; r = 1 } in
  let tree_p = Property.make ~name:"P (Section 2 witness)" (Ti.in_p p2) in
  let gmr_config =
    { (Gmr.default_config ~r:1) with Gmr.fragment_cap = 25 }
  in
  let gmr_property = Gmr_deciders.property ~r:1 ~config:gmr_config in
  let gmr_instance =
    match Gmr.build ~config:gmr_config ~r:1 (Zoo.two_faced ~steps:2 ~real:0 ~fake:1) with
    | Ok t -> t.Gmr.lg
    | Error _ -> assert false
  in
  let check name instance expected p lg =
    {
      property_name = name;
      instance;
      hereditary_looking =
        Hereditary.connected_induced_counterexample ~rng ~samples p lg = None;
      expected_hereditary = expected;
    }
  in
  [
    check "proper-3-colouring" "coloured C9" true
      (Property.proper_colouring ~k:3)
      (Labelled.init (Gen.cycle 9) (fun v -> v mod 3));
    check "proper-3-colouring" "coloured 4x3 grid" true
      (Property.proper_colouring ~k:3)
      (Labelled.init (Gen.grid 4 3) (fun v -> ((v mod 4) + (v / 4)) mod 2));
    check "maximal-independent-set" "alternating P7" false
      Property.maximal_independent_set
      (Labelled.init (Gen.path 7) (fun v -> v mod 2));
    check "P (Section 2 witness)" "H+ at (0,1)" false tree_p
      (Ti.small_instance p2 ~apex:(0, 1));
    check "P (Section 3 witness)" "G(twofaced2, 1)" false
      gmr_property gmr_instance;
  ]

(* ------------------------------------------------------------------ *)
(* W2 / W3: the warm-up promise problems                               *)
(* ------------------------------------------------------------------ *)

type warmup_row = {
  problem : string;
  setting : string;
  check : string;
  ok : bool;
}

let cycle_warmup ?backend ?seed ~regime ~name ~quick () =
  let rng = rng ?seed () in
  let rs = if quick then [ 4 ] else [ 4; 8; 16 ] in
  List.concat_map
    (fun r ->
      let decider = Cycle_promise.ld_decider ~regime in
      let yes = Cycle_promise.yes_instance ~r in
      let no = Cycle_promise.no_instance ~regime ~r in
      let assignments = if quick then 15 else 60 in
      let eval expected lg =
        Decider.all_correct
          (Decider.evaluate ?backend ~rng ~regime ~assignments decider
             ~expected ~instance:"" lg)
      in
      [
        {
          problem = "W2 cycle promise";
          setting = Printf.sprintf "%s r=%d" name r;
          check = "LD decider correct on both instances";
          ok = eval true yes && eval false no;
        };
        {
          problem = "W2 cycle promise";
          setting = Printf.sprintf "%s r=%d" name r;
          check = "views mutually covered at t=1 (oblivious blind spot)";
          ok = Cycle_promise.views_mutually_covered ~regime ~r ~t:1;
        };
      ])
    rs

let tm_warmup ?backend ?seed ~quick () =
  let rng = rng ?seed () in
  let fuel = 32 in
  let decider = Tm_promise.ld_decider () in
  let machines =
    if quick then [ (Zoo.walk ~steps:4 ~output:0, false) ]
    else
      [
        (Zoo.diverge_right, true);
        (Zoo.diverge_bounce, true);
        (Zoo.walk ~steps:4 ~output:0, false);
        (Zoo.binary_counter ~bits:2, false);
      ]
  in
  let rows =
    List.map
      (fun (m, expected) ->
        let s =
          match Exec.run ~fuel:1024 m with
          | Exec.Halted { steps; _ } -> steps
          | Exec.Out_of_fuel _ | Exec.Crashed _ -> 0
        in
        let n = max 3 (s + 1) in
        let lg = Tm_promise.instance ~machine:m ~n in
        let e =
          Decider.evaluate ?backend ~rng ~regime:Ids.Unbounded
            ~assignments:(if quick then 10 else 30)
            decider ~expected ~instance:"" lg
        in
        {
          problem = "W3 TM promise";
          setting = m.Machine.name;
          check = "LD decider correct on all sampled assignments";
          ok = Decider.all_correct e;
        })
      machines
  in
  let fooled =
    let m = Tm_promise.fooling_machine ~fuel in
    let s =
      match Exec.run ~fuel:(4 * fuel) m with
      | Exec.Halted { steps; _ } -> steps
      | Exec.Out_of_fuel _ | Exec.Crashed _ -> assert false
    in
    let lg = Tm_promise.instance ~machine:m ~n:(s + 1) in
    let candidate = Tm_promise.oblivious_candidate ~fuel in
    {
      problem = "W3 TM promise";
      setting = Printf.sprintf "fuel-%d candidate vs %s" fuel m.Machine.name;
      check = "oblivious candidate accepts a halting (no-)instance";
      ok = Verdict.accepts (Decider.decide_oblivious candidate lg);
    }
  in
  rows @ [ fooled ]

let warmups ?backend ?(quick = false) ?seed () =
  cycle_warmup ?backend ?seed ~regime:(Ids.f_linear_plus 1)
    ~name:"f=n+1" ~quick ()
  @ (if quick then []
     else
       cycle_warmup ?backend ?seed ~regime:Ids.f_square
         ~name:"f=n^2+1" ~quick ())
  @ tm_warmup ?backend ?seed ~quick ()

(* ------------------------------------------------------------------ *)
(* A1-A4: ablations of the reproduction's design choices              *)
(* ------------------------------------------------------------------ *)

type ablation_row =
  | Fragment_cap of {
      cap : int;
      fragments : int;
      nodes : int;
      edges : int;
      rules_ok : bool;
    }
  | Anchor_phases of {
      all_phases : bool;
      fragments : int;
      nodes : int;
      edges : int;
      rules_ok : bool;
    }
  | Coverage_scaling of {
      r : int;
      depth : int;
      tree_nodes : int;
      covered : int;
      total : int;
    }
  | At_scale of {
      r : int;
      tree_nodes : int;
      pprime_accepts : bool;
      p_rejects : bool;
    }

(* G(twofaced3, 1) under one fragment configuration: its fragments,
   nodes and edges, and whether its rules pass. [name] says which
   ablation and parameter failed to build. *)
let ablation_gmr ~name config =
  match Gmr.build ~config ~r:1 (Zoo.two_faced ~steps:3 ~real:0 ~fake:1) with
  | Ok t ->
      ( List.length t.Gmr.fragments,
        Gmr.order t,
        Gmr.size t,
        Gmr_check.structure_ok t )
  | Error _ ->
      failwith (Printf.sprintf "%s: G(twofaced3, 1) did not build" name)

let fragment_cap_row cap =
  let fragments, nodes, edges, rules_ok =
    ablation_gmr
      ~name:(Printf.sprintf "ablation A1 (cap %d)" cap)
      { (Gmr.default_config ~r:1) with Gmr.fragment_cap = cap }
  in
  Fragment_cap { cap; fragments; nodes; edges; rules_ok }

let anchor_phases_row all_phases =
  let fragments, nodes, edges, rules_ok =
    ablation_gmr
      ~name:(Printf.sprintf "ablation A2 (all_phases %b)" all_phases)
      { (Gmr.default_config ~r:1) with Gmr.fragment_cap = 50; all_phases }
  in
  Anchor_phases { all_phases; fragments; nodes; edges; rules_ok }

let coverage_scaling_row r =
  let p = { Ti.regime = Ids.f_linear_plus 1; arity = 1; r } in
  let depth = Ti.depth p in
  let c = Tree_deciders.coverage p ~t:1 in
  Coverage_scaling
    {
      r;
      depth;
      tree_nodes = Bound.tree_size ~arity:1 ~depth;
      covered = c.Tree_deciders.covered;
      total = c.Tree_deciders.total_views;
    }

let at_scale_row r =
  let regime = Ids.f_identity in
  let p = { Ti.regime; arity = 2; r } in
  let tr = Ti.big_tree p in
  let ids = Ids.sample (rng ~seed:5 ()) regime ~n:(Labelled.order tr) in
  At_scale
    {
      r;
      tree_nodes = Labelled.order tr;
      pprime_accepts =
        Verdict.accepts
          (Decider.decide_oblivious (Tree_deciders.pprime_verifier p) tr);
      p_rejects =
        Verdict.rejects (Decider.decide (Tree_deciders.p_decider p) tr ~ids);
    }

(* The check a row fails, named with its ablation and parameter. *)
let ablation_failure = function
  | Fragment_cap { cap; rules_ok = false; _ } ->
      Some (Printf.sprintf "ablation A1 (cap %d): structure rules fail" cap)
  | Anchor_phases { all_phases; rules_ok = false; _ } ->
      Some
        (Printf.sprintf "ablation A2 (all_phases %b): structure rules fail"
           all_phases)
  | At_scale { r; pprime_accepts = false; _ } ->
      Some (Printf.sprintf "ablation A4 (r = %d): P' verifier rejects T_%d" r r)
  | At_scale { r; p_rejects = false; _ } ->
      Some (Printf.sprintf "ablation A4 (r = %d): P decider accepts T_%d" r r)
  | Fragment_cap _ | Anchor_phases _ | Coverage_scaling _ | At_scale _ -> None

let ablations ?(quick = false) () =
  let rows =
    List.map fragment_cap_row [ 25; 50; 100; 200; 400 ]
    @ List.map anchor_phases_row [ false; true ]
    @ List.map coverage_scaling_row [ 2; 4; 8; 16; 32 ]
    @ [ at_scale_row (if quick then 2 else 3) ]
  in
  List.iter (fun row -> Option.iter failwith (ablation_failure row)) rows;
  rows

(* ------------------------------------------------------------------ *)
(* FT: fault injection and graceful degradation                        *)
(* ------------------------------------------------------------------ *)

type fault_row = {
  f_scenario : string;
  f_plan : Faults.plan;
  f_eval : Decider.fault_evaluation;
}

(* Deterministic crash placement: [count] crash-stop failures spread
   across the node range, alternating between rounds 1 and 2. *)
let crash_plan ~count ~n plan =
  if count = 0 then plan
  else
    let stride = max 1 (n / (count + 1)) in
    {
      plan with
      Faults.crashes =
        List.init count (fun i -> ((i + 1) * stride mod n, 1 + (i mod 2)));
    }

let faults ?(quick = false) ?(seed = default_seed) ?drop ?crashes ?fuel
    ?retries ?runs () =
  (match crashes with
  | Some c when c < 0 ->
      invalid_arg (Printf.sprintf "faults: --crashes must be >= 0, got %d" c)
  | Some _ | None -> ());
  (match runs with
  | Some r when r < 1 ->
      invalid_arg (Printf.sprintf "faults: --runs must be >= 1, got %d" r)
  | Some _ | None -> ());
  let rng = rng ~seed () in
  let regime = Ids.f_linear_plus 1 in
  let runs = match runs with Some r -> r | None -> if quick then 4 else 10 in
  let p2 = { Ti.regime; arity = 2; r = 1 } in
  let tr = Ti.big_tree p2 in
  let apexes = Ti.apexes p2 in
  let small =
    Ti.small_instance p2 ~apex:(List.nth apexes (List.length apexes / 2))
  in
  let tree_decider = Tree_deciders.p_decider p2 in
  let gmr_config =
    { (Gmr.default_config ~r:1) with
      Gmr.fragment_cap = (if quick then 25 else 30) }
  in
  let build m =
    match Gmr.build ~config:gmr_config ~r:1 m with
    | Ok t -> t.Gmr.lg
    | Error _ -> assert false
  in
  let c1_yes = build (Zoo.two_faced ~steps:2 ~real:0 ~fake:1) in
  let c1_no = build (Zoo.two_faced ~steps:2 ~real:1 ~fake:0) in
  (* The Corollary 1 decider is randomised; under the fault runner its
     per-node coins are drawn from the experiment rng at decide time
     (evaluation order is fixed, so runs stay reproducible). *)
  let corollary1_frozen =
    let rd = Gmr_deciders.corollary1_decider () in
    Algorithm.make ~name:"Gmr-corollary1" ~radius:rd.Randomized.radius
      (fun view ->
        let node_rng = Random.State.make [| Random.State.bits rng |] in
        rd.Randomized.decide node_rng (View.strip_ids view))
  in
  let crash_count = Option.value crashes ~default:0 in
  let scenario ?(crash = crash_count) ?(fuel_b = fuel) name alg expected
      instance lg d k =
    let n = Labelled.order lg in
    let plan =
      crash_plan ~count:crash ~n
        (Faults.make ~seed ~drop:d ?fuel:fuel_b ~retries:k ())
    in
    {
      f_scenario = name;
      f_plan = plan;
      f_eval =
        Decider.evaluate_faulty ~rng ~regime ~runs ~plan alg ~expected
          ~instance lg;
    }
  in
  let drops =
    match drop with
    | Some d -> [ d ]
    | None -> if quick then [ 0.0; 0.2 ] else [ 0.0; 0.1; 0.3 ]
  in
  let retries_list =
    match retries with
    | Some k -> [ k ]
    | None -> if quick then [ 1 ] else [ 0; 2 ]
  in
  (* The G(M,1) instances are an order of magnitude larger than the
     trees, so the randomised decider sweeps the drops axis only, at a
     single retry budget. *)
  let c1_retries = match retries with Some k -> k | None -> 1 in
  let tree_grid =
    List.concat_map
      (fun d ->
        List.concat_map
          (fun k ->
            [
              scenario "tree P-decider" tree_decider false "T_r" tr d k;
              scenario "tree P-decider" tree_decider true "H+" small d k;
            ])
          retries_list)
      drops
  in
  let c1_grid =
    List.concat_map
      (fun d ->
        [
          scenario "corollary1 (rand)" corollary1_frozen true "G(M0,1)" c1_yes
            d c1_retries;
          scenario "corollary1 (rand)" corollary1_frozen false "G(M1,1)" c1_no
            d c1_retries;
        ])
      drops
  in
  let grid = tree_grid @ c1_grid in
  let sweeping =
    drop = None && crashes = None && fuel = None && retries = None
  in
  let extras =
    if not sweeping then []
    else
      [
        (* the crash-stop and fuel-budget axes, at a fixed drop rate *)
        scenario ~crash:1 "tree P-decider" tree_decider true "H+ (1 crash)"
          small 0.05 1;
        scenario ~crash:2 "tree P-decider" tree_decider false "T_r (2 crashes)"
          tr 0.05 1;
        scenario ~fuel_b:(Some 2) "tree P-decider" tree_decider true
          "H+ (fuel 2)" small 0.0 0;
      ]
  in
  grid @ extras

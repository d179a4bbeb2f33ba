(* Tests for graph / labelled / rooted-view isomorphism. *)

open Locald_graph

let check = Alcotest.check
let bool = Alcotest.bool

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let random_perm rng n = shuffle rng (Array.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Graph isomorphism: labelled isomorphism under constant labels       *)
(* ------------------------------------------------------------------ *)

let graphs_isomorphic g h =
  Iso.labelled_isomorphic ( = ) (Labelled.const g ()) (Labelled.const h ())

let test_iso_reflexive () =
  List.iter
    (fun g -> check bool "g ~ g" true (graphs_isomorphic g g))
    [ Gen.cycle 7; Gen.grid 3 4; Gen.complete_binary_tree 3 ]

let test_iso_relabelled () =
  let rng = Random.State.make [| 1 |] in
  List.iter
    (fun g ->
      let h = Graph.relabel g (random_perm rng (Graph.order g)) in
      check bool "g ~ relabel g" true (graphs_isomorphic g h))
    [ Gen.cycle 8; Gen.grid 3 3; Gen.star 6; Gen.complete_binary_tree 3 ]

let test_iso_negative () =
  check bool "path vs cycle" false
    (graphs_isomorphic (Gen.path 6) (Gen.cycle 6));
  check bool "different sizes" false
    (graphs_isomorphic (Gen.cycle 6) (Gen.cycle 7));
  (* Same degree sequence, different structure: two triangles vs C6. *)
  let two_triangles = Graph.disjoint_union (Gen.cycle 3) (Gen.cycle 3) in
  check bool "2xC3 vs C6" false (graphs_isomorphic two_triangles (Gen.cycle 6));
  check bool "4x4 grid vs 4x4 torus" false
    (graphs_isomorphic (Gen.grid 4 4) (Gen.torus 4 4))

let test_refine_colors_invariant () =
  (* Colour refinement distinguishes a path's endpoints from its
     middle. *)
  let g = Gen.path 5 in
  let colors = Iso.refine_colors g (Array.make 5 0) in
  check bool "endpoints share colour" true (colors.(0) = colors.(4));
  check bool "middle differs from ends" true (colors.(0) <> colors.(2))

(* ------------------------------------------------------------------ *)
(* Labelled isomorphism                                                *)
(* ------------------------------------------------------------------ *)

let test_labelled_iso () =
  let lg = Labelled.init (Gen.cycle 6) (fun v -> v mod 2) in
  let rng = Random.State.make [| 2 |] in
  let perm = random_perm rng 6 in
  let lh = Labelled.relabel_nodes lg perm in
  check bool "labelled iso after relabel" true
    (Iso.labelled_isomorphic ( = ) lg lh);
  let bad = Labelled.mapi (fun v x -> if v = 0 then 1 - x else x) lg in
  check bool "label flip breaks iso" false (Iso.labelled_isomorphic ( = ) lg bad)

let test_labelled_iso_respects_labels () =
  (* Same graph, same label multiset, different label placement. *)
  let g = Gen.path 4 in
  let a = Labelled.make g [| 0; 1; 0; 1 |] in
  let b = Labelled.make g [| 0; 1; 1; 0 |] in
  check bool "placement matters" false (Iso.labelled_isomorphic ( = ) a b);
  (* But the reversal of a path is an isomorphism. *)
  let c = Labelled.make g [| 1; 0; 1; 0 |] in
  check bool "reversal works" true (Iso.labelled_isomorphic ( = ) a c)

(* ------------------------------------------------------------------ *)
(* Rooted views                                                        *)
(* ------------------------------------------------------------------ *)

let test_views_rooted () =
  let lg = Labelled.const (Gen.path 5) () in
  let end_view = View.extract lg ~center:0 ~radius:1 in
  let mid_view = View.extract lg ~center:2 ~radius:1 in
  let other_end = View.extract lg ~center:4 ~radius:1 in
  check bool "two ends isomorphic" true
    (Iso.views_isomorphic ( = ) end_view other_end);
  check bool "end vs middle differ (rooting!)" false
    (Iso.views_isomorphic ( = ) end_view mid_view)

let test_views_ignore_ids () =
  let lg = Labelled.const (Gen.cycle 5) 7 in
  let va = View.extract ~ids:[| 10; 20; 30; 40; 50 |] lg ~center:0 ~radius:1 in
  let vb = View.extract ~ids:[| 5; 4; 3; 2; 1 |] lg ~center:0 ~radius:1 in
  check bool "ids are ignored by view isomorphism" true
    (Iso.views_isomorphic ( = ) va vb)

let test_view_signature_invariance () =
  let rng = Random.State.make [| 3 |] in
  let lg = Labelled.init (Gen.grid 3 4) (fun v -> v mod 3) in
  for v = 0 to Labelled.order lg - 1 do
    let perm = random_perm rng (Labelled.order lg) in
    let lh = Labelled.relabel_nodes lg perm in
    let view_g = View.extract lg ~center:v ~radius:2 in
    let view_h = View.extract lh ~center:perm.(v) ~radius:2 in
    check Alcotest.int "signature invariant under relabelling"
      (Iso.view_signature Hashtbl.hash view_g)
      (Iso.view_signature Hashtbl.hash view_h)
  done

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let arbitrary_labelled =
  QCheck2.Gen.(
    let* n = int_range 3 16 in
    let* seed = int_bound 1_000_000 in
    let rng = Random.State.make [| seed |] in
    let g = Gen.random_connected rng ~n ~p:0.2 in
    let labels = Array.init n (fun _ -> Random.State.int rng 3) in
    return (Labelled.make g labels, seed))

let prop_relabel_iso =
  QCheck2.Test.make ~name:"random relabelling preserves labelled iso" ~count:50
    arbitrary_labelled (fun (lg, seed) ->
      let rng = Random.State.make [| seed + 1 |] in
      let perm = random_perm rng (Labelled.order lg) in
      Iso.labelled_isomorphic ( = ) lg (Labelled.relabel_nodes lg perm))

let prop_views_iso_symmetric =
  QCheck2.Test.make ~name:"view iso is symmetric" ~count:40 arbitrary_labelled
    (fun (lg, _) ->
      let va = View.extract lg ~center:0 ~radius:2 in
      let vb = View.extract lg ~center:(Labelled.order lg - 1) ~radius:2 in
      Iso.views_isomorphic ( = ) va vb = Iso.views_isomorphic ( = ) vb va)

let prop_signature_respects_iso =
  QCheck2.Test.make ~name:"isomorphic views share a signature" ~count:40
    arbitrary_labelled (fun (lg, seed) ->
      let rng = Random.State.make [| seed + 2 |] in
      let perm = random_perm rng (Labelled.order lg) in
      let lh = Labelled.relabel_nodes lg perm in
      let v = Random.State.int rng (Labelled.order lg) in
      Iso.view_signature Hashtbl.hash (View.extract lg ~center:v ~radius:1)
      = Iso.view_signature Hashtbl.hash
          (View.extract lh ~center:perm.(v) ~radius:1))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_relabel_iso; prop_views_iso_symmetric; prop_signature_respects_iso ]

let () =
  Alcotest.run "iso"
    [
      ( "graphs",
        [
          Alcotest.test_case "reflexive" `Quick test_iso_reflexive;
          Alcotest.test_case "relabelled" `Quick test_iso_relabelled;
          Alcotest.test_case "negative cases" `Quick test_iso_negative;
          Alcotest.test_case "colour refinement" `Quick test_refine_colors_invariant;
        ] );
      ( "labelled",
        [
          Alcotest.test_case "relabelled labelled graphs" `Quick test_labelled_iso;
          Alcotest.test_case "labels constrain the mapping" `Quick
            test_labelled_iso_respects_labels;
        ] );
      ( "views",
        [
          Alcotest.test_case "rooting matters" `Quick test_views_rooted;
          Alcotest.test_case "ids ignored" `Quick test_views_ignore_ids;
          Alcotest.test_case "signature invariance" `Quick test_view_signature_invariance;
        ] );
      ("properties", qcheck_cases);
    ]

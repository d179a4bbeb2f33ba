open Locald_graph
open Locald_turing

type ctx = {
  g : Graph.t;
  label : int -> Gmr.label;
  parent_memo : int option option array;
      (** memoised [pyr_parent]: [None] = not computed yet. Shared
          across a whole-graph pass so that the pivot's huge
          neighbourhood is scanned once, not once per neighbour. *)
}

let classify_for_quadtree ctx u =
  match (ctx.label u).Gmr.part with
  | Gmr.Pyr l -> Quadtree.Upper l
  | Gmr.Cell { m6x; m6y; _ } -> Quadtree.Bottom (m6x, m6y)

(* Unique mod-6 direction between two base positions. *)
let dir6_between (ax, ay) (bx, by) =
  let step (a, b) = function
    | Grid.Left -> ((a + 5) mod 6, b)
    | Grid.Right -> ((a + 1) mod 6, b)
    | Grid.Up -> (a, (b + 5) mod 6)
    | Grid.Down -> (a, (b + 1) mod 6)
  in
  match
    List.filter
      (fun d -> step (ax, ay) d = (bx, by))
      [ Grid.Left; Grid.Right; Grid.Up; Grid.Down ]
  with
  | [ d ] -> Some d
  | _ -> None

let cell_m6 (l : Gmr.label) =
  match l.Gmr.part with
  | Gmr.Cell { m6x; m6y; _ } -> Some (m6x, m6y)
  | Gmr.Pyr _ -> None

let cell_content (l : Gmr.label) =
  match l.Gmr.part with
  | Gmr.Cell { cell; _ } -> Some cell
  | Gmr.Pyr _ -> None

(* The neighbours of [v] that satisfy [p], in increasing order. *)
let neighbours_where ctx v p =
  List.rev (Graph.fold_neighbours (fun w acc -> if p w then w :: acc else acc) ctx.g v [])

(* The unique pyramid parent of a base cell, if any. *)
let pyr_parent ctx v =
  match ctx.parent_memo.(v) with
  | Some cached -> cached
  | None ->
      let parents =
        neighbours_where ctx v (fun u ->
            match (ctx.label u).Gmr.part with
            | Gmr.Pyr l -> l.Quadtree.z3 = 1
            | Gmr.Cell _ -> false)
      in
      let result = match parents with [ p ] -> Some p | _ -> None in
      ctx.parent_memo.(v) <- Some result;
      result

(* Grid-sibling test: mod-6 adjacent and parent-coherent per parity. *)
let grid_sibling ctx v w =
  match (cell_m6 (ctx.label v), cell_m6 (ctx.label w)) with
  | Some m6v, Some m6w -> (
      match dir6_between m6v m6w with
      | None -> None
      | Some d -> (
          match (pyr_parent ctx v, pyr_parent ctx w) with
          | Some pv, Some pw ->
              let x, y = m6v in
              let same_expected =
                match d with
                | Grid.Right -> x mod 2 = 0
                | Grid.Left -> x mod 2 = 1
                | Grid.Down -> y mod 2 = 0
                | Grid.Up -> y mod 2 = 1
              in
              let coherent =
                if same_expected then pv = pw
                else pv <> pw && Graph.mem_edge ctx.g pv pw
              in
              if coherent then Some d else None
          | _, _ -> None))
  | _, _ -> None

(* The cell-neighbour of [v] that is a grid sibling in direction [d]. *)
let sibling_in_dir ctx v d =
  let hits = neighbours_where ctx v (fun w -> grid_sibling ctx v w = Some d) in
  match hits with [ w ] -> Some w | _ -> None

(* Mod-6 neighbour for window lookups: pivot-look partners excluded
   (their edge is a gluing edge, not a grid edge). *)
let m6_neighbour_excluding_pivot ctx v d =
  match cell_m6 (ctx.label v) with
  | None -> None
  | Some m6v -> (
      let hits =
        neighbours_where ctx v (fun w ->
            (not (Gmr.pivot_look (ctx.label w)))
            &&
            match cell_m6 (ctx.label w) with
            | Some m6w -> dir6_between m6v m6w = Some d
            | None -> false)
      in
      match hits with [ w ] -> Some w | _ -> None)

let glue_partners ctx v =
  (* Cell neighbours that are not grid siblings. *)
  neighbours_where ctx v (fun w ->
      Option.is_some (cell_m6 (ctx.label w)) && grid_sibling ctx v w = None)

let border_look ctx v =
  (* Missing some grid direction (by mod-6 adjacency, pivots excluded). *)
  List.exists
    (fun d -> m6_neighbour_excluding_pivot ctx v d = None)
    [ Grid.Left; Grid.Right; Grid.Up; Grid.Down ]

let pyr_rules ctx v =
  Quadtree.inspect ~classify:(classify_for_quadtree ctx) ctx.g v

let cell_rules ctx v =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let own = ctx.label v in
  let machine = own.Gmr.machine in
  let content = Option.get (cell_content own) in
  (* Rule 1: a unique pyramid parent with consistent halved position. *)
  (match pyr_parent ctx v with
  | None -> err "cell %d lacks a unique pyramid parent" v
  | Some p -> (
      match (ctx.label p).Gmr.part with
      | Gmr.Pyr lp ->
          let m6x, m6y = Option.get (cell_m6 own) in
          if lp.Quadtree.m6x mod 3 <> m6x / 2 || lp.Quadtree.m6y mod 3 <> m6y / 2
          then err "pyramid parent of cell %d has inconsistent position" v
      | Gmr.Cell _ -> assert false));
  (* Rule 2: sibling direction uniqueness and gluing-edge shape. *)
  let sibling_dirs =
    Graph.fold_neighbours
      (fun w acc -> match grid_sibling ctx v w with Some d -> d :: acc | None -> acc)
      ctx.g v []
  in
  if List.length (List.sort_uniq compare sibling_dirs) <> List.length sibling_dirs
  then err "cell %d has two grid siblings in one direction" v;
  let glued = glue_partners ctx v in
  let own_pivot = Gmr.pivot_look own in
  if own_pivot then begin
    if sibling_in_dir ctx v Grid.Up <> None || sibling_in_dir ctx v Grid.Left <> None
    then err "pivot %d has an Up or Left grid sibling" v;
    List.iter
      (fun w ->
        if Gmr.pivot_look (ctx.label w) then err "pivot %d glued to a pivot" v
        else if not (border_look ctx w) then
          err "pivot %d glued to the non-border cell %d" v w)
      glued
  end
  else begin
    (match glued with
    | [] -> ()
    | [ w ] ->
        if not (Gmr.pivot_look (ctx.label w)) then
          err "gluing edge %d-%d has no pivot endpoint" v w
        else if not (border_look ctx v) then
          err "non-border cell %d is glued to the pivot" v
    | _ -> err "cell %d has several gluing edges" v);
    ()
  end;
  (* Rule 3: execution-window consistency against the row above. *)
  (match sibling_in_dir ctx v Grid.Up with
  | Some up ->
      let up_cell w = Option.get (cell_content (ctx.label w)) in
      let upleft = m6_neighbour_excluding_pivot ctx up Grid.Left in
      let upright = m6_neighbour_excluding_pivot ctx up Grid.Right in
      (match
         Rules.successor machine
           ~left:(Option.map up_cell upleft)
           ~here:(up_cell up)
           ~right:(Option.map up_cell upright)
       with
      | None -> err "head collision above cell %d" v
      | Some expected ->
          if not (Cell.equal expected content) then begin
            let entry_ok =
              (upleft = None
              && Rules.explained_by_entry machine ~side:`Left ~expected
                   ~actual:content)
              || upright = None
                 && Rules.explained_by_entry machine ~side:`Right ~expected
                      ~actual:content
            in
            if not entry_ok then
              err "cell %d does not follow from the row above" v
          end)
  | None ->
      (* Top-row-like cell: if not glued, this must be the genuine
         initial row — blank, headless (or the pivot itself). *)
      if glued = [] && not own_pivot then begin
        if not (Cell.equal content Cell.blank) then
          err "unglued top-row cell %d is not blank" v
      end);
  List.rev !errors

let violations ctx v =
  match (ctx.label v).Gmr.part with
  | Gmr.Pyr _ -> pyr_rules ctx v
  | Gmr.Cell _ -> cell_rules ctx v

let ctx_of lg =
  {
    g = Labelled.graph lg;
    label = Labelled.label lg;
    parent_memo = Array.make (Labelled.order lg) None;
  }

let violations_in lg v = violations (ctx_of lg) v

let violations_view (view : Gmr.label View.t) =
  violations
    {
      g = view.View.graph;
      label = (fun u -> view.View.labels.(u));
      parent_memo = Array.make (View.order view) None;
    }
    view.View.center

let structure_array lg =
  let ctx = ctx_of lg in
  Array.init (Labelled.order lg) (fun v -> violations ctx v = [])

let first_violation lg =
  let ctx = ctx_of lg in
  let n = Labelled.order lg in
  let rec go v =
    if v >= n then None
    else
      match violations ctx v with
      | [] -> go (v + 1)
      | reason :: _ -> Some (v, reason)
  in
  go 0

let structure_ok (t : Gmr.t) = first_violation t.Gmr.lg = None

let global_check ~r ~config (lg : Gmr.label Labelled.t) =
  if Labelled.order lg = 0 then false
  else begin
    let machine = (Labelled.label lg 0).Gmr.machine in
    match Gmr.build ~config ~r machine with
    | Error _ -> false
    | Ok reference ->
        Labelled.order lg = Labelled.order reference.Gmr.lg
        && Iso.labelled_isomorphic Gmr.equal_label lg reference.Gmr.lg
  end

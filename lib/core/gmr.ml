open Locald_graph
open Locald_turing
open Locald_runtime

type part =
  | Cell of { cell : Cell.t; m6x : int; m6y : int }
  | Pyr of Quadtree.label

type label = {
  machine : Machine.t;
  r : int;
  part : part;
}

let equal_label (a : label) b =
  a.r = b.r && a.part = b.part && Machine.equal a.machine b.machine

let pp_label ppf l =
  match l.part with
  | Cell { cell; m6x; m6y } ->
      Format.fprintf ppf "cell(%s @%d,%d r=%d)" (Cell.to_string cell) m6x m6y l.r
  | Pyr q -> Format.fprintf ppf "pyr%a r=%d" Quadtree.pp_label q l.r

let pivot_look l =
  match l.part with
  | Cell { cell = { Cell.sym = 0; head = Cell.Head 0 }; m6x = 0; m6y = 0 } -> true
  | Cell _ | Pyr _ -> false

type provenance =
  | Table_base of int * int
  | Table_pyr of Quadtree.coord3
  | Frag_base of int * int * int
  | Frag_pyr of int * Quadtree.coord3

type config = {
  fragment_side : int;
  fragment_cap : int;
  max_heads_per_row : int;
  all_phases : bool;
  fuel : int;
}

let rec next_pow2 n = if n <= 1 then 1 else 2 * next_pow2 ((n + 1) / 2)

let default_config ~r =
  {
    (* The paper uses side 2^(3r); the minimal side that hosts every
       radius-r window is 2r+1, rounded up to a power of two for the
       fragment pyramids (see DESIGN.md, substitutions). *)
    fragment_side = max 4 (next_pow2 ((2 * r) + 1));
    fragment_cap = 400;
    max_heads_per_row = 1;
    all_phases = false;
    fuel = 64;
  }

type t = {
  config : config;
  machine : Machine.t;
  r : int;
  lg : label Labelled.t;
  provenance : provenance array;
  pivot : int;
  table_side : int;
  steps : int;
  output : int;
  fragments : Fragment.t list;
  truncated : bool;
}

exception Not_admissible of string

let log2_exact n =
  let rec go k p = if p = n then k else if p > n then -1 else go (k + 1) (2 * p) in
  let k = go 0 1 in
  if k < 0 then invalid_arg (Printf.sprintf "Gmr: %d is not a power of two" n);
  k

(* The fragment collection actually glued: real-table windows, the
   fake-halt fragments, and a capped syntactic enumeration; fragments
   exhibiting a state-0 head are removed (pivot uniqueness). *)
let collection ~config machine table_cells =
  let w = config.fragment_side and h = config.fragment_side in
  let windows = Fragment.of_cells_windows machine table_cells ~w ~h in
  let fakes = Fragment.fake_halts machine ~w ~h in
  let enum =
    Fragment.enumerate ~max_heads_per_row:config.max_heads_per_row
      ~cap:config.fragment_cap machine ~w ~h
  in
  let all =
    windows @ fakes @ enum.Fragment.fragments
    |> List.filter (fun f -> not (Fragment.contains_start_state f))
    |> List.sort_uniq Fragment.compare
  in
  (all, enum.Fragment.truncated)

(* Anchor phases: a fragment with its own height-[hf] pyramid can only
   impersonate windows whose anchor is a multiple of its side; the
   label residues it can exhibit are the anchor multiples modulo
   [6 * side]. *)
let phases ~config =
  if not config.all_phases then [ (0, 0) ]
  else begin
    let side = config.fragment_side in
    let axis = List.init 6 (fun k -> k * side) in
    List.concat_map (fun ax -> List.map (fun ay -> (ax, ay)) axis) axis
  end

let frag_label ~machine ~r ~anchor:(ax, ay) ~cells (c : Quadtree.coord3) =
  if c.Quadtree.z = 0 then
    {
      machine;
      r;
      part =
        Cell
          {
            cell = cells.(c.Quadtree.y).(c.Quadtree.x);
            m6x = (ax + c.Quadtree.x) mod 6;
            m6y = (ay + c.Quadtree.y) mod 6;
          };
    }
  else
    let shift v = v lsr c.Quadtree.z in
    {
      machine;
      r;
      part =
        Pyr
          {
            Quadtree.m6x = (shift ax + c.Quadtree.x) mod 6;
            m6y = (shift ay + c.Quadtree.y) mod 6;
            z3 = c.Quadtree.z mod 3;
          };
    }

(* Assemble the labelled graph from the (possibly truncated) table
   cells and the fragment collection. *)
let assemble ~machine ~r ~config table_cells fragments =
  let side = Array.length table_cells in
  let h = log2_exact side in
  let hf = log2_exact config.fragment_side in
  let table_order = Quadtree.order ~h in
  let frag_order = Quadtree.order ~h:hf in
  let table_graph = Quadtree.build ~h in
  let frag_graph = Quadtree.build ~h:hf in
  let frag_edges = Graph.edges frag_graph in
  let phase_list = phases ~config in
  let instances =
    List.concat_map (fun f -> List.map (fun ph -> (f, ph)) phase_list) fragments
  in
  let n = table_order + (List.length instances * frag_order) in
  let labels = Array.make n { machine; r; part = Pyr { Quadtree.m6x = 0; m6y = 0; z3 = 0 } } in
  let provenance = Array.make n (Table_base (0, 0)) in
  (* Table part. *)
  for i = 0 to table_order - 1 do
    let c = Quadtree.coord_of_index ~h i in
    if c.Quadtree.z = 0 then begin
      labels.(i) <-
        {
          machine;
          r;
          part =
            Cell
              {
                cell = table_cells.(c.Quadtree.y).(c.Quadtree.x);
                m6x = c.Quadtree.x mod 6;
                m6y = c.Quadtree.y mod 6;
              };
        };
      provenance.(i) <- Table_base (c.Quadtree.x, c.Quadtree.y)
    end
    else begin
      labels.(i) <- { machine; r; part = Pyr (Quadtree.label_of_coord c) };
      provenance.(i) <- Table_pyr c
    end
  done;
  let edges = ref (Graph.edges table_graph) in
  let pivot = Quadtree.index ~h { Quadtree.x = 0; y = 0; z = 0 } in
  (* Fragments. *)
  List.iteri
    (fun idx (f, anchor) ->
      let offset = table_order + (idx * frag_order) in
      for i = 0 to frag_order - 1 do
        let c = Quadtree.coord_of_index ~h:hf i in
        labels.(offset + i) <-
          frag_label ~machine ~r ~anchor ~cells:f.Fragment.cells c;
        provenance.(offset + i) <-
          (if c.Quadtree.z = 0 then Frag_base (idx, c.Quadtree.x, c.Quadtree.y)
           else Frag_pyr (idx, c))
      done;
      List.iter (fun (u, v) -> edges := (offset + u, offset + v) :: !edges) frag_edges;
      (* Glue the non-natural border cells to the pivot. *)
      List.iter
        (fun (row, col) ->
          let base =
            offset + Quadtree.index ~h:hf { Quadtree.x = col; y = row; z = 0 }
          in
          edges := (pivot, base) :: !edges)
        (Fragment.non_natural_cells machine f))
    instances;
  let g = Graph.of_edges ~n !edges in
  (Labelled.make g labels, provenance, pivot)

let build ?config ~r machine =
  let config = match config with Some c -> c | None -> default_config ~r in
  if Machine.reenters_start machine then
    raise
      (Not_admissible
         (Printf.sprintf "machine %s re-enters state 0" machine.Machine.name));
  match Table.of_machine ~fuel:config.fuel machine with
  | Error o -> Error o
  | Ok table ->
      let table = Table.pad_to_power_of_two table in
      let table =
        (* A pyramid needs side >= fragment side to host the fragment
           views; also keep at least 4 for a non-degenerate pyramid. *)
        Table.pad_to table
          (max table.Table.side (max 4 config.fragment_side))
      in
      let fragments, truncated = collection ~config machine table.Table.cells in
      let lg, provenance, pivot =
        assemble ~machine ~r ~config table.Table.cells fragments
      in
      Ok
        {
          config;
          machine;
          r;
          lg;
          provenance;
          pivot;
          table_side = table.Table.side;
          steps = table.Table.steps;
          output = table.Table.output;
          fragments;
          truncated;
        }

let order t = Labelled.order t.lg
let size t = Graph.size (Labelled.graph t.lg)

(* Deduplicate views up to rooted isomorphism, exactly at every size:
   the huge views around the pivot (one per glued border cell) go
   through the same canonical forms and backtracking search as the
   rest. Canonical keys are computed for all views in parallel;
   deduplication itself stays sequential in input order so class
   representatives come out identical at any job count.
   [Canon.classes] decides membership; the [(signature, order, size)]
   table ([Canon]'s fingerprint is [Iso.view_signature] by
   construction) only fixes the historical output order. *)
let dedupe_views views =
  let canon = Canon.create ~equal:equal_label () in
  let views = Array.of_list views in
  let keys = Pool.map (Canon.key canon) views in
  let seen = Canon.classes canon in
  let classes = Hashtbl.create 256 in
  Array.iteri
    (fun i view ->
      let key = keys.(i) in
      if Canon.add seen key then
        let s =
          (Canon.fingerprint key, View.order view, Graph.size view.View.graph)
        in
        match Hashtbl.find_opt classes s with
        | Some b -> b := view :: !b
        | None -> Hashtbl.replace classes s (ref [ view ]))
    views;
  Hashtbl.fold (fun _ b acc -> !b @ acc) classes []

let views_covered views ~by =
  let canon = Canon.create ~equal:equal_label () in
  let keys vs = Pool.map (Canon.key canon) (Array.of_list vs) in
  let known = Canon.classes canon in
  Array.iter (fun key -> ignore (Canon.add known key)) (keys by);
  let flags = Pool.map (Canon.mem known) (keys views) in
  let covered = Array.fold_left (fun acc ok -> if ok then acc + 1 else acc) 0 flags in
  let total = Array.length flags in
  (covered = total, covered, total)

let views_of_lg lg ~radius =
  Pool.map
    (fun v -> View.extract lg ~center:v ~radius)
    (Array.init (Labelled.order lg) Fun.id)
  |> Array.to_list

let all_views ?radius ?(dedupe = true) t =
  let radius = Option.value radius ~default:t.r in
  let views = views_of_lg t.lg ~radius in
  if dedupe then dedupe_views views else views

let generator_views ?config ?view_radius ?(dedupe = true) ~r ~side_exp machine =
  let config = match config with Some c -> c | None -> default_config ~r in
  let radius = Option.value view_radius ~default:r in
  let side = 1 lsl side_exp in
  match build ~config ~r machine with
  | Ok t when t.table_side <= side ->
      (* The machine demonstrably halts within the window: output the
         views of the real construction. *)
      all_views ~radius ~dedupe t
  | Ok _ | Error _ ->
      (* Truncated mode: lay out the first [side] rows of the (possibly
         infinite) execution and exclude views touching the truncation
         artefacts. *)
      let configs, _ = Exec.trace ~fuel:(side - 1) machine in
      let cells =
        Array.init side (fun i ->
            let c = List.nth configs (min i (List.length configs - 1)) in
            Array.init side (fun j ->
                let sym = Exec.tape_cell c j in
                let head =
                  if i < List.length configs && j = c.Exec.head then
                    Cell.Head c.Exec.state
                  else Cell.No_head
                in
                { Cell.sym; head }))
      in
      let fragments, _ = collection ~config machine cells in
      let lg, provenance, _pivot = assemble ~machine ~r ~config cells fragments in
      let suspect v =
        match provenance.(v) with
        | Table_base (x, y) -> y = side - 1 || x = side - 1
        | Table_pyr c -> c.Quadtree.z > radius
        | Frag_base _ | Frag_pyr _ -> false
      in
      let views =
        Pool.map
          (fun v ->
            let view, ball = View.extract_mapped lg ~center:v ~radius in
            if Array.exists suspect ball then None else Some view)
          (Array.init (Labelled.order lg) Fun.id)
        |> Array.to_list
        |> List.filter_map Fun.id
      in
      if dedupe then dedupe_views views else views

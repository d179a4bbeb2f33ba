open Locald_graph
open Locald_turing
open Locald_local
open Locald_decision
open Locald_runtime

let simulation_cap = 100_000

let structure_verifier () =
  Algorithm.make_oblivious ~name:"Gmr-structure" ~radius:2 (fun view ->
      Gmr_check.violations_view view = [])

let halts_with_nonzero machine ~fuel =
  match Exec.run ~fuel machine with
  | Exec.Halted { output; _ } -> output <> 0
  | Exec.Out_of_fuel _ | Exec.Crashed _ -> false

let ld_decider () =
  let structure = structure_verifier () in
  (* Decide-once on the simulation outcome. The verdict of a bounded
     TM run is a pure function of [(machine, fuel)] and [Exec.run]
     never touches the view, so memoising it is trace-safe: the
     certifier's nondeterminism double-run reads the view identically
     and answers the simulation from the table on the second pass.
     The coins-free key also never coarsens across id decorations —
     the fuel IS the centre id. *)
  let sim =
    Memo.create ~hash:Memo.structural_hash ~equal:Memo.structural_equal ()
  in
  Algorithm.make ~name:"Gmr-LD-decider" ~radius:2 (fun (view : Gmr.label View.t) ->
      let machine = (View.center_label view).Gmr.machine in
      let fuel = min (View.center_id view) simulation_cap in
      structure.Algorithm.ob_decide (View.strip_ids view)
      && not
           (Memo.find_or_compute sim (machine, fuel) (fun () ->
                halts_with_nonzero machine ~fuel)))

let candidate_fuel ~fuel =
  let structure = structure_verifier () in
  Algorithm.make_oblivious
    ~name:(Printf.sprintf "Gmr-candidate-fuel%d" fuel)
    ~radius:2
    (fun (view : Gmr.label View.t) ->
      let machine = (View.center_label view).Gmr.machine in
      structure.Algorithm.ob_decide view && not (halts_with_nonzero machine ~fuel))

let candidate_scan () =
  let structure = structure_verifier () in
  Algorithm.make_oblivious ~name:"Gmr-candidate-scan" ~radius:2 (fun view ->
      let sees_bad_halt =
        Array.exists
          (fun (l : Gmr.label) ->
            match l.Gmr.part with
            | Gmr.Cell { cell = { Cell.head = Cell.Halted o; _ }; _ } -> o <> 0
            | Gmr.Cell _ | Gmr.Pyr _ -> false)
          view.View.labels
      in
      structure.Algorithm.ob_decide view && not sees_bad_halt)

let corollary1_decider () =
  let structure = structure_verifier () in
  Randomized.make ~name:"Gmr-corollary1" ~radius:2 (fun rng (view : Gmr.label View.t) ->
      let machine = (View.center_label view).Gmr.machine in
      let fuel =
        Randomized.four_pow_capped ~cap:simulation_cap (Randomized.geometric rng)
      in
      structure.Algorithm.ob_decide view && not (halts_with_nonzero machine ~fuel))

let separation_accepts candidate ?config ~r ~side_exp machine =
  let views =
    Gmr.generator_views ?config ~view_radius:candidate.Algorithm.ob_radius
      ~dedupe:false ~r ~side_exp machine
  in
  List.for_all
    (fun view -> candidate.Algorithm.ob_decide (View.strip_ids view))
    views

(* Fast whole-graph evaluation of the same deciders: the structure
   rules are evaluated once per graph (they do not depend on the
   identifiers or the coins), and the per-node simulation outcome is
   derived from one full run of the machine — "simulating for k steps
   finds a non-zero halt" is monotone in k. Agreement with the honest
   per-view algorithms is part of the test suite. *)
module Fast = struct
  type t = {
    lg : Gmr.label Labelled.t;
    structure : bool array;
    halt_steps : int option;  (** steps after which the halt is visible *)
    output : int;
    bad_halt_within_2 : bool array;
  }

  let dilate g marked =
    let n = Array.length marked in
    let out = Array.copy marked in
    for v = 0 to n - 1 do
      if not out.(v) then
        out.(v) <- Graph.exists_neighbour (fun u -> marked.(u)) g v
    done;
    out

  let prepare (lg : Gmr.label Labelled.t) =
    let structure = Gmr_check.structure_array lg in
    let machine = (Labelled.label lg 0).Gmr.machine in
    let halt_steps, output =
      match Exec.run ~fuel:simulation_cap machine with
      | Exec.Halted { output; steps } -> (Some steps, output)
      | Exec.Out_of_fuel _ | Exec.Crashed _ -> (None, 0)
    in
    let g = Labelled.graph lg in
    let bad =
      Array.init (Labelled.order lg) (fun v ->
          match (Labelled.label lg v).Gmr.part with
          | Gmr.Cell { cell = { Cell.head = Cell.Halted o; _ }; _ } -> o <> 0
          | Gmr.Cell _ | Gmr.Pyr _ -> false)
    in
    let bad_halt_within_2 = dilate g (dilate g bad) in
    { lg; structure; halt_steps; output; bad_halt_within_2 }

  let finds_bad_halt t ~fuel =
    (* [Exec.run ~fuel] reads the halting action only with [fuel > steps]
       transitions of budget left, matching [halts_with_nonzero]. *)
    match t.halt_steps with
    | Some s -> fuel > s && t.output <> 0
    | None -> false

  let verdict_of t per_node =
    Verdict.of_outputs
      (Array.init (Labelled.order t.lg) (fun v -> t.structure.(v) && per_node v))

  let ld t ~ids =
    verdict_of t (fun v ->
        let fuel = min (Ids.assign ids v) simulation_cap in
        not (finds_bad_halt t ~fuel))

  let fuel_candidate t ~fuel = verdict_of t (fun _ -> not (finds_bad_halt t ~fuel))

  let scan_candidate t = verdict_of t (fun v -> not t.bad_halt_within_2.(v))

  let corollary1 t rng =
    (* Decide-once per geometric level within one run: the outcome is
       a pure function of the level, so repeated draws answer from a
       run-local flat table (domain-confined — no locks, no hashing).
       The coins are still consumed one draw per node, exactly like
       the uncached decider: coins themselves are never memoised (the
       PR-4 contract), only the deterministic function of the draw is.
       The reuse reports into the run-scoped memo tallies like
       Runner's decide tasks — flushed in bulk after the verdict,
       because this loop runs millions of times per experiment. *)
    let max_level = 62 in
    let outcomes = Bytes.make (max_level + 1) '\000' in
    let hits = ref 0 and misses = ref 0 in
    let decide_level level =
      let fuel = Randomized.four_pow_capped ~cap:simulation_cap level in
      not (finds_bad_halt t ~fuel)
    in
    let verdict =
      verdict_of t (fun _ ->
          let level = Randomized.geometric rng in
          if level <= max_level then
            match Bytes.unsafe_get outcomes level with
            | '\001' ->
                incr hits;
                true
            | '\002' ->
                incr hits;
                false
            | _ ->
                incr misses;
                let ok = decide_level level in
                Bytes.unsafe_set outcomes level (if ok then '\001' else '\002');
                ok
          else begin
            (* Levels past 62 are beyond the fuel cap's resolution and
               astronomically unlikely; just compute. *)
            incr misses;
            decide_level level
          end)
    in
    Memo.note_hits !hits;
    Memo.note_misses !misses;
    Memo.note_distincts !misses;
    verdict
end

let property ~r ~config =
  Property.make ~name:(Printf.sprintf "P={G(M,%d) : M outputs 0}" r) (fun (lg : Gmr.label Labelled.t) ->
      Labelled.order lg > 0
      && Gmr_check.global_check ~r ~config lg
      &&
      let machine = (Labelled.label lg 0).Gmr.machine in
      match Exec.run ~fuel:config.Gmr.fuel machine with
      | Exec.Halted { output; _ } -> output = 0
      | Exec.Out_of_fuel _ | Exec.Crashed _ -> false)

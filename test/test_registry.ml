(* The run registry against the committed pins: every quick-tier
   workload reproduces the problem size and digest of its
   BENCH_quick.json @j1 row, and the quick tier names exactly the
   pinned workloads. The suite runs under whatever session defaults it
   is launched with (LOCALD_JOBS, LOCALD_BACKEND); the pins depend on
   neither. *)

open Locald_core
module Json = Locald_runtime.Telemetry.Json

let pins =
  lazy
    (match
       Json.of_string
         (In_channel.with_open_bin "../BENCH_quick.json" In_channel.input_all)
     with
    | Json.Obj entries -> entries
    | _ -> Alcotest.fail "BENCH_quick.json is not a JSON object")

let quick = Registry.tier_workloads Registry.Quick

let test_names () =
  let pinned =
    List.sort_uniq compare
      (List.map
         (fun (key, _) ->
           match String.index_opt key '@' with
           | Some i -> String.sub key 0 i
           | None -> key)
         (Lazy.force pins))
  in
  Alcotest.(check (list string))
    "quick tier names = pinned names" pinned
    (List.sort compare (List.map (fun w -> w.Registry.p_name) quick))

let test_row (w : Registry.pinned) () =
  let key = w.Registry.p_name ^ "@j1" in
  let row =
    match List.assoc_opt key (Lazy.force pins) with
    | Some row -> row
    | None -> Alcotest.failf "no pinned row %s" key
  in
  let n, digest = w.Registry.p_run () in
  (match Json.member "n" row with
  | Some (Json.Int pinned) -> Alcotest.(check int) (key ^ " n") pinned n
  | _ -> Alcotest.failf "%s has no integer n" key);
  match Json.member "result_digest" row with
  | Some (Json.String pinned) ->
      Alcotest.(check string) (key ^ " result_digest") pinned digest
  | _ -> Alcotest.failf "%s has no result_digest" key

let () =
  Alcotest.run "registry"
    [
      ( "pins",
        Alcotest.test_case "quick tier = BENCH_quick.json keys" `Quick
          test_names
        :: List.map
             (fun w ->
               Alcotest.test_case
                 (w.Registry.p_name ^ "@j1 n and digest")
                 `Quick (test_row w))
             quick );
    ]

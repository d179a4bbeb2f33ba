type t = Sync | Async of Async_runner.config

let of_string s =
  match String.trim (String.lowercase_ascii s) with
  | "sync" -> Some Sync
  | "async" -> Some (Async Async_runner.default_config)
  | _ -> None

(* A seed or fifo flag implies the async backend; naming "sync"
   alongside them is a contradiction and is rejected rather than
   silently dropped. *)
let resolve name ~sched_seed ~fifo =
  let scheduled = sched_seed <> None || fifo <> None in
  let async () =
    Ok
      (Some
         (Async
            {
              Async_runner.sched_seed = Option.value sched_seed ~default:0;
              fifo = Option.value fifo ~default:false;
            }))
  in
  match name with
  | None -> if scheduled then async () else Ok None
  | Some s -> (
      match of_string s with
      | Some Sync when scheduled ->
          Error "sched_seed/fifo apply to the async backend only"
      | Some Sync -> Ok (Some Sync)
      | Some (Async _) -> async ()
      | None ->
          Error (Printf.sprintf "unknown backend %S (expected sync | async)" s))

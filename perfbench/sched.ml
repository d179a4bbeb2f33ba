(* Seeded, replayable request schedules for the serve workloads.

   Everything the daemon will receive is generated here, from the seed
   alone, before the daemon starts: arrival offsets, request classes,
   rank ranges and scheduler seeds. The schedule digest written into
   each result proves that two runs offered identical load. *)

type request =
  | Ping
  | Decide of {
      workload : string;
      lo : int;
      hi : int;
      sched_seed : int option;  (* [Some s]: the async backend, seed [s] *)
    }

type item = {
  due : float;  (* seconds after the phase starts; 0 in closed loops *)
  req : request;
}

(* One independent stream per (seed, phase name), so adding a phase or
   resizing one leaves the other phases' requests unchanged. *)
let rng ~seed ~phase = Random.State.make [| seed; Hashtbl.hash phase |]

(* [n] requests with Poisson arrivals at [rate] per second: exponential
   gaps drawn from the same stream as the requests, so the whole
   schedule is a function of (seed, phase). *)
let open_loop ~seed ~phase ~rate ~n draw =
  let st = rng ~seed ~phase in
  let t = ref 0. in
  Array.init n (fun i ->
      let u = Random.State.float st 1. in
      t := !t -. (log (1. -. u) /. rate);
      { due = !t; req = draw st i })

let closed_loop ~seed ~phase ~n draw =
  let st = rng ~seed ~phase in
  Array.init n (fun i -> { due = 0.; req = draw st i })

(* A class-weighted draw: [pick st [(w1, f1); ...]] calls [fi st] with
   probability proportional to [wi]. *)
let pick st classes =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 classes in
  let r = Random.State.int st total in
  let rec go acc = function
    | [] -> invalid_arg "Sched.pick: no classes"
    | [ (_, f) ] -> f st
    | (w, f) :: rest -> if r < acc + w then f st else go (acc + w) rest
  in
  go 0 classes

let request_to_string = function
  | Ping -> "ping"
  | Decide { workload; lo; hi; sched_seed } ->
      Printf.sprintf "decide %s [%d,%d)%s" workload lo hi
        (match sched_seed with
        | None -> ""
        | Some s -> Printf.sprintf " async:%d" s)

(* Due times enter at microsecond resolution: well below the
   generator's own lateness, and immune to last-bit float noise. *)
let digest items =
  let b = Buffer.create (32 * Array.length items) in
  Array.iter
    (fun it ->
      Buffer.add_string b
        (Printf.sprintf "%d %s\n"
           (int_of_float (Float.round (it.due *. 1e6)))
           (request_to_string it.req)))
    items;
  Digest.to_hex (Digest.string (Buffer.contents b))

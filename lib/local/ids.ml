type t = int array

exception Invalid_ids of string

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_ids s)) fmt

let of_array a =
  let tbl = Hashtbl.create (2 * Array.length a) in
  Array.iter
    (fun id ->
      if id < 0 then invalid "negative identifier %d" id;
      if Hashtbl.mem tbl id then invalid "duplicate identifier %d" id;
      Hashtbl.replace tbl id ())
    a;
  Array.copy a

let to_array t = Array.copy t
let assign t v = t.(v)
let size t = Array.length t
let max_id t = Array.fold_left max (-1) t

let check_size ~n t =
  if size t <> n then invalid "%d ids for a %d-node graph" (size t) n

let sequential n = Array.init n Fun.id

let fisher_yates rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  a

let shuffled rng n = fisher_yates rng (Array.init n Fun.id)

let random_below rng ~bound n =
  if bound < n then invalid "cannot draw %d distinct ids below %d" n bound;
  (* Reservoir-free selection: a random injection via partial shuffle
     of a sparse map (bound can be large). *)
  let chosen = Hashtbl.create (2 * n) in
  let result = Array.make n 0 in
  let rec draw i =
    if i >= n then ()
    else begin
      let candidate = Random.State.int rng bound in
      if Hashtbl.mem chosen candidate then draw i
      else begin
        Hashtbl.replace chosen candidate ();
        result.(i) <- candidate;
        draw (i + 1)
      end
    end
  in
  draw 0;
  result

let offset t k =
  if k < 0 then invalid "negative offset %d" k;
  Array.map (fun id -> id + k) t

(* Rank-addressed access to the lexicographic stream of injections,
   for the sharded exhaustive runs: a chunk [lo, hi) of ranks
   enumerates independently of every other chunk, and [injection_at]
   recovers the concrete assignment behind a recorded failure rank.
   Delegates to the runtime's falling-factorial unranking so
   restriction streams and assignment streams keep agreeing on what
   "rank" means. *)
let injection_at ~n ~bound rank =
  if bound < n then invalid "cannot inject %d nodes into %d ids" n bound;
  match Locald_runtime.Orbit.unrank ~bound ~k:n rank with
  | a -> a
  | exception Invalid_argument msg -> invalid "%s" msg

type regime =
  | Unbounded
  | Bounded of { name : string; f : int -> int }

let respects regime ~n t =
  Array.length t = n
  &&
  match regime with
  | Unbounded -> true
  | Bounded { f; _ } -> Array.for_all (fun id -> id < f n) t

let sample rng regime ~n =
  match regime with
  | Bounded { f; _ } -> random_below rng ~bound:(max n (f n)) n
  | Unbounded ->
      let base = Random.State.int rng 1024 in
      offset (random_below rng ~bound:(4 * max 1 n) n) base

let f_identity = Bounded { name = "f(n)=n"; f = Fun.id }
let f_linear_plus k = Bounded { name = Printf.sprintf "f(n)=n+%d" k; f = (fun n -> n + k) }
let f_square = Bounded { name = "f(n)=n^2+1"; f = (fun n -> (n * n) + 1) }

(* A monotone staircase whose jumps come from a seeded hash: monotone
   and >= n (as (B) needs) but with no algebraic structure an
   algorithm could invert other than by oracle access. The growth is
   kept close to n so that the Section 2 construction (whose large
   instance has about 2^f(..) nodes for binary trees) stays buildable. *)
let f_oracle ~seed =
  let cache = Hashtbl.create 64 in
  let rec extra n =
    if n <= 0 then 0
    else
      match Hashtbl.find_opt cache n with
      | Some v -> v
      | None ->
          let v = extra (n - 1) + (Hashtbl.hash (seed, n) land 1) in
          Hashtbl.replace cache n v;
          v
  in
  Bounded { name = Printf.sprintf "f=oracle#%d" seed; f = (fun n -> n + extra n) }

let pp ppf t =
  Format.fprintf ppf "@[<hov 2>ids[";
  Array.iteri
    (fun v id -> Format.fprintf ppf "%s%d:%d" (if v > 0 then ", " else "") v id)
    t;
  Format.fprintf ppf "]@]"

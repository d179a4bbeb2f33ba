exception Invalid_graph of string

(* Compressed sparse row: the neighbours of [v] are
   [adj.(off.(v)) .. adj.(off.(v + 1) - 1)], sorted strictly increasing,
   and [off.(n) = 2m]. An owned graph's arrays have exactly those
   lengths; a borrowed ball (see [with_ball]) lives in longer per-domain
   buffers, so every loop here is bounded by [n] and [off.(n)], never by
   [Array.length] of the arrays. *)
type t = {
  n : int;
  m : int;
  off : int array;
  adj : int array;
}

let invalid fmt = Format.kasprintf (fun s -> raise (Invalid_graph s)) fmt

let check_endpoint n v =
  if v < 0 || v >= n then invalid "vertex %d out of range [0,%d)" v n

let int_compare (a : int) b = if a < b then -1 else if a > b then 1 else 0

(* CSR of the [n]-vertex graph whose edges [feed] passes to its
   argument. [feed] runs twice, to count degrees and then to fill the
   slices in feed order. Since adjacency is symmetric, writing each [u]
   into the slices of its neighbours, [u] increasing, then sorts every
   slice; duplicates are dropped, compacting the array leftwards. *)
let of_feed n feed =
  let off = Array.make (n + 1) 0 in
  feed (fun u v ->
      check_endpoint n u;
      check_endpoint n v;
      if u = v then invalid "self-loop at vertex %d" u;
      off.(u + 1) <- off.(u + 1) + 1;
      off.(v + 1) <- off.(v + 1) + 1);
  for v = 1 to n do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let next = Array.sub off 0 n in
  let put a u v =
    a.(next.(u)) <- v;
    next.(u) <- next.(u) + 1
  in
  let fed = Array.make off.(n) 0 in
  feed (fun u v ->
      put fed u v;
      put fed v u);
  Array.blit off 0 next 0 n;
  let adj = Array.make off.(n) 0 in
  for u = 0 to n - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      put adj fed.(i) u
    done
  done;
  let w = ref 0 in
  for v = 0 to n - 1 do
    let lo = off.(v) and hi = off.(v + 1) in
    off.(v) <- !w;
    for i = lo to hi - 1 do
      let x = adj.(i) in
      if !w = off.(v) || adj.(!w - 1) <> x then begin
        adj.(!w) <- x;
        incr w
      end
    done
  done;
  off.(n) <- !w;
  let adj = if !w = Array.length adj then adj else Array.sub adj 0 !w in
  { n; m = !w / 2; off; adj }

let of_adjacency adj =
  of_feed (Array.length adj) (fun add ->
      Array.iteri (fun u nbrs -> Array.iter (add u) nbrs) adj)

let of_edges ~n edges =
  if n < 0 then invalid "negative vertex count %d" n;
  of_feed n (fun add -> List.iter (fun (u, v) -> add u v) edges)

let empty n =
  if n < 0 then invalid "negative vertex count %d" n;
  { n; m = 0; off = Array.make (n + 1) 0; adj = [||] }

let order g = g.n
let size g = g.m

let degree g v =
  check_endpoint g.n v;
  g.off.(v + 1) - g.off.(v)

let neighbours g v =
  let d = degree g v in
  Array.sub g.adj g.off.(v) d

let neighbour g v k =
  if k < 0 || k >= degree g v then
    invalid "port %d out of range [0,%d) at vertex %d" k (degree g v) v;
  g.adj.(g.off.(v) + k)

let iter_neighbours f g v =
  check_endpoint g.n v;
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    f g.adj.(i)
  done

let fold_neighbours f g v init =
  check_endpoint g.n v;
  let acc = ref init in
  for i = g.off.(v) to g.off.(v + 1) - 1 do
    acc := f g.adj.(i) !acc
  done;
  !acc

let exists_neighbour p g v =
  check_endpoint g.n v;
  let stop = g.off.(v + 1) in
  let rec go i = i < stop && (p g.adj.(i) || go (i + 1)) in
  go g.off.(v)

let for_all_neighbours p g v =
  check_endpoint g.n v;
  let stop = g.off.(v + 1) in
  let rec go i = i >= stop || (p g.adj.(i) && go (i + 1)) in
  go g.off.(v)

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    best := max !best (g.off.(v + 1) - g.off.(v))
  done;
  !best

(* Binary search in the sorted slice for its first entry >= [v]; a loop
   rather than a local recursive function, so no closure is allocated. *)
let port g u v =
  check_endpoint g.n u;
  check_endpoint g.n v;
  let lo = ref g.off.(u) and hi = ref g.off.(u + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.adj.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < g.off.(u + 1) && g.adj.(!lo) = v then !lo - g.off.(u) else -1

let mem_edge g u v = port g u v >= 0

let edges g =
  let acc = ref [] in
  for u = g.n - 1 downto 0 do
    for i = g.off.(u + 1) - 1 downto g.off.(u) do
      let v = g.adj.(i) in
      if u < v then acc := (u, v) :: !acc
    done
  done;
  !acc

let fold_vertices f g init =
  let rec go v acc = if v >= g.n then acc else go (v + 1) (f v acc) in
  go 0 init

let iter_vertices f g =
  for v = 0 to g.n - 1 do
    f v
  done

let vertices g = List.init g.n Fun.id

(* ------------------------------------------------------------------ *)
(* Per-domain BFS scratch                                              *)
(* ------------------------------------------------------------------ *)

(* Bit-packed visited set: one bit per vertex. The invariant between
   calls is all-zero; every user clears exactly the bits it set, so
   there is no O(n) wipe on the hot path. *)

let[@inline] bit_test b v =
  Char.code (Bytes.unsafe_get b (v lsr 3)) land (1 lsl (v land 7)) <> 0

let[@inline] bit_set b v =
  let i = v lsr 3 in
  Bytes.unsafe_set b i
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get b i) lor (1 lsl (v land 7))))

let[@inline] bit_clear b v =
  let i = v lsr 3 in
  Bytes.unsafe_set b i
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get b i) land lnot (1 lsl (v land 7))))

type scratch = {
  mutable cap : int;          (* vertex capacity of the four arrays below *)
  mutable visited : Bytes.t;  (* bitset, all-zero between calls *)
  mutable dist : int array;   (* BFS depth, valid only for visited *)
  mutable queue : int array;  (* BFS queue / member list *)
  mutable rank : int array;   (* vertex -> index in the ball, members only *)
  mutable stage : int array;  (* an owned subgraph's adjacency before its exact-size copy *)
  (* The borrowed ball's output (see [with_ball]): apart from the
     arrays above, so an owned extraction inside the borrower's
     callback cannot overwrite it. *)
  mutable lent : bool;
  mutable l_back : int array;
  mutable l_off : int array;
  mutable l_adj : int array;
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        cap = 0;
        visited = Bytes.empty;
        dist = [||];
        queue = [||];
        rank = [||];
        stage = [||];
        lent = false;
        l_back = [||];
        l_off = [||];
        l_adj = [||];
      })

(* Reuse accounting of ball extractions, read by the
   [view.scratch_reuses] telemetry gauge and the reuse-pinning test.
   Cumulative across all domains since program start; callers diff
   snapshots to scope a run. *)
let reuses = Atomic.make 0
let allocs = Atomic.make 0
let scratch_reuses () = Atomic.get reuses
let scratch_allocs () = Atomic.get allocs

(* The calling domain's scratch, with room for [n] vertices. *)
let scratch ?(count = false) n =
  let s = Domain.DLS.get scratch_key in
  if s.cap >= n then (if count then Atomic.incr reuses)
  else begin
    if count then Atomic.incr allocs;
    s.visited <- Bytes.make ((n + 7) lsr 3) '\000';
    s.dist <- Array.make n 0;
    s.queue <- Array.make n 0;
    s.rank <- Array.make n 0;
    s.cap <- n
  end;
  s

let grown a n = if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) 0

(* Truncated BFS: marks the radius-[radius] ball around [center] in
   [s.visited] and leaves its members in [s.queue.(0 .. k-1)]; returns
   [k]. Only the ball is explored, so small views of very large graphs
   stay cheap. The caller clears the marks ([unmark]). *)
let bfs_ball s g ~center ~radius =
  if radius < 0 then invalid "view: negative radius %d" radius;
  check_endpoint g.n center;
  let visited = s.visited and dist = s.dist and queue = s.queue in
  let off = g.off and adj = g.adj in
  bit_set visited center;
  Array.unsafe_set dist center 0;
  Array.unsafe_set queue 0 center;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = Array.unsafe_get queue !head in
    incr head;
    let du = Array.unsafe_get dist u in
    if du < radius then
      for i = Array.unsafe_get off u to Array.unsafe_get off (u + 1) - 1 do
        let w = Array.unsafe_get adj i in
        if not (bit_test visited w) then begin
          bit_set visited w;
          Array.unsafe_set dist w (du + 1);
          Array.unsafe_set queue !tail w;
          incr tail
        end
      done
  done;
  !tail

(* Index of the lowest set bit of a non-zero byte. *)
let lowest_bit =
  Array.init 256 (fun x ->
      let rec go i = if x = 0 || x land (1 lsl i) <> 0 then i else go (i + 1) in
      go 0)

(* The [k] marked members of a [bfs_ball], increasing, into
   [back.(0 .. k-1)]. A dense ball reads the bitset back in index order;
   a sparse ball in a huge graph sorts the queue instead, since the
   bitset scan costs O(n/8) whatever the ball's size. *)
let sorted_members s g k back =
  if g.n lsr 3 <= 4 * k then begin
    let idx = ref 0 in
    for b = 0 to ((g.n + 7) lsr 3) - 1 do
      let rest = ref (Char.code (Bytes.unsafe_get s.visited b)) in
      while !rest <> 0 do
        let r = !rest in
        Array.unsafe_set back !idx ((b lsl 3) + Array.unsafe_get lowest_bit r);
        incr idx;
        rest := r land (r - 1)
      done
    done
  end
  else begin
    let members = Array.sub s.queue 0 k in
    Array.sort int_compare members;
    Array.blit members 0 back 0 k
  end

(* Total degree of [back.(0 .. k-1)]: room enough for their induced
   adjacency. *)
let slice_total g back k =
  let total = ref 0 in
  for i = 0 to k - 1 do
    let v = back.(i) in
    total := !total + g.off.(v + 1) - g.off.(v)
  done;
  !total

(* The subgraph induced on the marked, sorted [back.(0 .. k-1)] in the
   ball's numbering, into [off.(0 .. k)] and [adj.(0 .. off.(k) - 1)].
   [back] and every slice are sorted, so the mapped ranks come out
   sorted with no per-vertex sort. *)
let induce s g k back off adj =
  let rank = s.rank and visited = s.visited in
  for i = 0 to k - 1 do
    Array.unsafe_set rank back.(i) i
  done;
  off.(0) <- 0;
  let e = ref 0 in
  for i = 0 to k - 1 do
    let v = back.(i) in
    for j = g.off.(v) to g.off.(v + 1) - 1 do
      let w = Array.unsafe_get g.adj j in
      if bit_test visited w then begin
        adj.(!e) <- Array.unsafe_get rank w;
        incr e
      end
    done;
    off.(i + 1) <- !e
  done

let unmark s back k =
  for i = 0 to k - 1 do
    bit_clear s.visited back.(i)
  done

let bfs_distances g src =
  check_endpoint g.n src;
  let queue = (scratch g.n).queue in
  let dist = Array.make g.n max_int in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) + 1 in
    for i = g.off.(u) to g.off.(u + 1) - 1 do
      let v = g.adj.(i) in
      if dist.(v) = max_int then begin
        dist.(v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  dist

let dist g u v = (bfs_distances g u).(v)

let ball g v t =
  let s = scratch g.n in
  let k = bfs_ball s g ~center:v ~radius:t in
  let members = Array.make k 0 in
  sorted_members s g k members;
  unmark s members k;
  members

(* One ball as a CSR subgraph. Owned output is allocated at exact size,
   the adjacency staged in [s.stage] and copied out; lent output goes
   straight into the domain's borrowed buffers. *)
let extract_into s g ~center ~radius ~lend =
  let k = bfs_ball s g ~center ~radius in
  let back =
    if lend then begin
      s.l_back <- grown s.l_back k;
      s.l_back
    end
    else Array.make k 0
  in
  sorted_members s g k back;
  let need = slice_total g back k in
  let off, adj =
    if lend then begin
      s.l_off <- grown s.l_off (k + 1);
      s.l_adj <- grown s.l_adj need;
      (s.l_off, s.l_adj)
    end
    else begin
      s.stage <- grown s.stage need;
      (Array.make (k + 1) 0, s.stage)
    end
  in
  induce s g k back off adj;
  unmark s back k;
  let adj = if lend then adj else Array.sub adj 0 off.(k) in
  ({ n = k; m = off.(k) / 2; off; adj }, back, s.rank.(center))

let extract_ball g ~center ~radius =
  extract_into (scratch ~count:true g.n) g ~center ~radius ~lend:false

let with_ball g ~center ~radius f =
  let s = scratch ~count:true g.n in
  if s.lent then begin
    let sub, back, c = extract_into s g ~center ~radius ~lend:false in
    f sub back c
  end
  else begin
    let sub, back, c = extract_into s g ~center ~radius ~lend:true in
    s.lent <- true;
    Fun.protect ~finally:(fun () -> s.lent <- false) (fun () -> f sub back c)
  end

let eccentricity g v =
  let d = bfs_distances g v in
  Array.fold_left
    (fun acc x ->
      if x = max_int then invalid "eccentricity of a disconnected graph"
      else max acc x)
    0 d

let is_connected g =
  if g.n = 0 then true
  else
    let d = bfs_distances g 0 in
    Array.for_all (fun x -> x < max_int) d

let diameter g =
  if g.n = 0 then invalid "diameter of the empty graph";
  fold_vertices (fun v acc -> max acc (eccentricity g v)) g 0

let components g =
  let seen = Array.make g.n false in
  let comps = ref [] in
  for v = 0 to g.n - 1 do
    if not seen.(v) then begin
      let d = bfs_distances g v in
      let comp = ref [] in
      for u = g.n - 1 downto 0 do
        if d.(u) < max_int then begin
          seen.(u) <- true;
          comp := u :: !comp
        end
      done;
      comps := Array.of_list !comp :: !comps
    end
  done;
  List.rev !comps

let induced g vs =
  let back = Array.copy vs in
  let k = Array.length back in
  (* The common caller passes a ball, which is already sorted: detect
     that with one scan and skip the sort. *)
  let presorted = ref true in
  for i = 1 to k - 1 do
    if back.(i - 1) >= back.(i) then presorted := false
  done;
  if not !presorted then Array.sort int_compare back;
  for i = 1 to k - 1 do
    if back.(i) = back.(i - 1) then invalid "induced: duplicate vertex %d" back.(i)
  done;
  Array.iter (check_endpoint g.n) back;
  let s = scratch g.n in
  Array.iter (bit_set s.visited) back;
  s.stage <- grown s.stage (slice_total g back k);
  let off = Array.make (k + 1) 0 in
  induce s g k back off s.stage;
  unmark s back k;
  ({ n = k; m = off.(k) / 2; off; adj = Array.sub s.stage 0 off.(k) }, back)

let disjoint_union g h =
  let eg = g.off.(g.n) and eh = h.off.(h.n) in
  let off = Array.make (g.n + h.n + 1) 0 in
  Array.blit g.off 0 off 0 (g.n + 1);
  for v = 1 to h.n do
    off.(g.n + v) <- eg + h.off.(v)
  done;
  let adj = Array.make (eg + eh) 0 in
  Array.blit g.adj 0 adj 0 eg;
  for i = 0 to eh - 1 do
    adj.(eg + i) <- h.adj.(i) + g.n
  done;
  { n = g.n + h.n; m = g.m + h.m; off; adj }

let add_edges g new_edges =
  of_edges ~n:g.n (new_edges @ edges g)

let add_vertices g k =
  if k < 0 then invalid "add_vertices: negative count %d" k;
  let e = g.off.(g.n) in
  let off = Array.make (g.n + k + 1) e in
  Array.blit g.off 0 off 0 (g.n + 1);
  { g with n = g.n + k; off; adj = Array.sub g.adj 0 e }

let relabel g perm =
  if Array.length perm <> g.n then invalid "relabel: permutation length mismatch";
  let seen = Array.make g.n false in
  Array.iter
    (fun v ->
      check_endpoint g.n v;
      if seen.(v) then invalid "relabel: not a permutation (duplicate %d)" v;
      seen.(v) <- true)
    perm;
  of_edges ~n:g.n (List.map (fun (u, v) -> (perm.(u), perm.(v))) (edges g))

(* The used prefixes only: a borrowed graph's buffers run longer. *)
let equal g h =
  let rec same a b i stop = i >= stop || (a.(i) = b.(i) && same a b (i + 1) stop) in
  g.n = h.n && g.m = h.m
  && same g.off h.off 0 (g.n + 1)
  && same g.adj h.adj 0 g.off.(g.n)

let is_regular g d = fold_vertices (fun v acc -> acc && degree g v = d) g true

let is_cycle g = g.n >= 3 && g.m = g.n && is_regular g 2 && is_connected g

let is_path_graph g =
  g.n >= 1 && g.m = g.n - 1 && is_connected g && max_degree g <= 2

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph(n=%d, m=%d:" g.n g.m;
  List.iter (fun (u, v) -> Format.fprintf ppf "@ %d-%d" u v) (edges g);
  Format.fprintf ppf ")@]"

(* Ball-local assignment quotient for exhaustive enumeration.

   Quantifying a decider over every injective global id assignment from
   [{0..bound-1}] touches [perm ~bound ~k:n] assignments, but the
   locality correspondence says node [v]'s output depends only on the
   restriction of the assignment to its radius-[t] ball. Per node there
   are just [perm ~bound ~k:(ball size)] distinct restrictions. This
   module provides the enumeration and the counting arithmetic that the
   quotient path in [Locald_decision.Decider] builds on, and the rank
   arithmetic the sharded exhaustive runs partition on.

   Counter: [scanned] accumulates, per quotient scan, the number of
   restriction classes actually enumerated — the denominator that bench
   rows surface as [orbit_classes] next to wall time. *)

let invalid fmt = Format.kasprintf invalid_arg fmt

let perm ~bound ~k =
  if k < 0 then invalid "Orbit.perm: negative k %d" k;
  if bound < 0 then invalid "Orbit.perm: negative bound %d" bound;
  if k > bound then 0
  else begin
    let acc = ref 1 in
    for i = bound - k + 1 to bound do
      acc := !acc * i
    done;
    !acc
  end

(* Injective k-tuples over [{0..bound-1}] in lexicographic order — the
   same order [Ids.enumerate_injections] uses for global assignments, so
   restriction streams and assignment streams agree on "first". *)
let injections ~bound ~k =
  if k < 0 then invalid "Orbit.injections: negative k %d" k;
  if bound < 0 then invalid "Orbit.injections: negative bound %d" bound;
  let rec go prefix len : int array Seq.t =
    if len = k then Seq.return (Array.of_list (List.rev prefix))
    else
      Seq.concat_map
        (fun c ->
          if List.mem c prefix then Seq.empty else go (c :: prefix) (len + 1))
        (Seq.init bound Fun.id)
  in
  go [] 0

(* Unranking in the falling-factorial number system: position [i] of
   the tuple has [perm ~bound:(bound-i-1) ~k:(k-i-1)] completions per
   candidate value, so the lexicographic rank decomposes digit by digit
   into indices of the ascending list of unused values. This is the
   index arithmetic the sharded exhaustive runs partition on: any chunk
   [lo, hi) of ranks enumerates independently of every other chunk. *)
let unrank ~bound ~k rank =
  let total = perm ~bound ~k in
  if rank < 0 || rank >= total then
    invalid "Orbit.unrank: rank %d outside [0,%d)" rank total;
  (* [avail.(0 .. live-1)] are the unused values, ascending. *)
  let avail = Array.init bound Fun.id in
  let live = ref bound in
  let r = ref rank in
  let out = Array.make k 0 in
  for i = 0 to k - 1 do
    let block = perm ~bound:(bound - i - 1) ~k:(k - i - 1) in
    let j = !r / block in
    r := !r mod block;
    out.(i) <- avail.(j);
    for m = j to !live - 2 do
      avail.(m) <- avail.(m + 1)
    done;
    decr live
  done;
  out

let injections_from ~bound ~k ~start =
  let total = perm ~bound ~k in
  if start < 0 || start > total then
    invalid "Orbit.injections_from: start %d outside [0,%d]" start total;
  (* Each element is unranked independently, so the sequence is
     persistent (re-forcing a node cannot observe sibling state) and
     any suffix is as cheap to start as the whole stream. *)
  let rec from rank () =
    if rank >= total then Seq.Nil
    else Seq.Cons (unrank ~bound ~k rank, from (rank + 1))
  in
  from start

(* Allocation-free variant for the hot quotient scans: same tuples in
   the same lexicographic order, but the callback receives a single
   scratch array that is overwritten between calls (copy to retain),
   and enumeration stops at the first [false]. A million restrictions
   through the [Seq] version costs a list, an array and a closure chain
   per tuple; this costs nothing per tuple. *)
let for_all_injections ~bound ~k f =
  if k < 0 then invalid "Orbit.for_all_injections: negative k %d" k;
  if bound < 0 then invalid "Orbit.for_all_injections: negative bound %d" bound;
  if k > bound then true
  else begin
    let r = Array.make k 0 in
    let used = Array.make bound false in
    let rec go i =
      if i = k then f r
      else begin
        let ok = ref true in
        let c = ref 0 in
        while !ok && !c < bound do
          if not used.(!c) then begin
            used.(!c) <- true;
            r.(i) <- !c;
            if not (go (i + 1)) then ok := false;
            used.(!c) <- false
          end;
          incr c
        done;
        !ok
      end
    in
    go 0
  end

(* ------------------------------------------------------------------ *)
(* Run-scoped scan accounting                                           *)
(* ------------------------------------------------------------------ *)

let c_scanned = Telemetry.Counter.make "orbit.scanned"

let scanned () = Telemetry.Counter.get c_scanned

let add_scanned n = Telemetry.Counter.add c_scanned n

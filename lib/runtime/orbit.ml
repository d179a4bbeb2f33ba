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

(* In-place lexicographic successor. Scanning from the right, the
   first position whose value can grow to a larger unused value takes
   the smallest such value, and every position after it takes the
   smallest unused values in ascending order — the first completion of
   the new prefix. [used] mirrors [r]'s values throughout, so a step
   costs O(k * bound) at worst and allocates nothing. *)
let rec grow_at ~bound r used i =
  i >= 0
  &&
  let old = r.(i) in
  used.(old) <- false;
  let c = ref (old + 1) in
  while !c < bound && used.(!c) do
    incr c
  done;
  if !c >= bound then grow_at ~bound r used (i - 1)
  else begin
    r.(i) <- !c;
    used.(!c) <- true;
    let next = ref 0 in
    for j = i + 1 to Array.length r - 1 do
      while used.(!next) do
        incr next
      done;
      r.(j) <- !next;
      used.(!next) <- true
    done;
    true
  end

let next_injection ~bound r used = grow_at ~bound r used (Array.length r - 1)

(* The allocation-free scan for the quotient paths: one scratch tuple
   stepped in place, so the callback sees every tuple through the same
   array (copy to retain). *)
let for_all_injections ~bound ~k f =
  if k < 0 then invalid "Orbit.for_all_injections: negative k %d" k;
  if bound < 0 then invalid "Orbit.for_all_injections: negative bound %d" bound;
  k > bound
  ||
  let r = Array.init k Fun.id in
  let used = Array.init bound (fun c -> c < k) in
  let rec go () = f r && ((not (next_injection ~bound r used)) || go ()) in
  go ()

(* ------------------------------------------------------------------ *)
(* Run-scoped scan accounting                                           *)
(* ------------------------------------------------------------------ *)

let c_scanned = Telemetry.Counter.make "orbit.scanned"

let scanned () = Telemetry.Counter.get c_scanned

let add_scanned n = Telemetry.Counter.add c_scanned n

(* Order statistics for the benchmark's samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> invalid_arg "Stats.median: no samples"
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let mean = function
  | [] -> invalid_arg "Stats.mean: no samples"
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

type tail = {
  value : float;       (* the tail sample *)
  percentile : float;  (* share of samples at or below it, in percent *)
  samples : int;       (* sample count the tail was taken over *)
}

(* The highest percentile the sample supports: the largest order
   statistic that still leaves ten samples above it. With 200 samples
   that is the 190th smallest, the p95. A sample of ten or fewer has no
   tail. *)
let tail xs =
  let beyond = 10 in
  let a = sorted xs in
  let n = Array.length a in
  if n <= beyond then None
  else
    Some
      {
        value = a.(n - 1 - beyond);
        percentile = 100. *. float_of_int (n - beyond) /. float_of_int n;
        samples = n;
      }

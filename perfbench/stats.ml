(* Order statistics for the benchmark's reports. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* [percentile ~p ~min_beyond xs] is the nearest-rank [p]-th percentile
   (the smallest sample with at least [p]% of the samples at or below
   it), together with the number of samples strictly beyond its rank.
   A tail percentile read from too few samples is noise, so the value is
   [None] unless at least [min_beyond] samples lie beyond it: a p99 needs
   1000 samples for ten beyond it. *)
let percentile ~p ~min_beyond xs =
  if p <= 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p outside (0, 100]";
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then None
  else
    (* the epsilon keeps 99% of 1000 at rank 990, not 991 *)
    let rank = Int.max 1 (int_of_float (Float.ceil ((p /. 100.0 *. float_of_int n) -. 1e-9))) in
    let beyond = n - rank in
    if beyond < min_beyond then None else Some (a.(rank - 1), beyond)

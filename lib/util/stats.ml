let check xs name =
  if Array.length xs = 0 then invalid_arg ("Stats." ^ name ^ ": empty")

let mean xs =
  check xs "mean";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let variance xs =
  check xs "variance";
  let m = mean xs in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.0)) 0.0 xs
  /. float_of_int (Array.length xs)

let min_max xs =
  check xs "min_max";
  Array.fold_left
    (fun (lo, hi) x -> (Float.min lo x, Float.max hi x))
    (xs.(0), xs.(0))
    xs

let quantile q xs =
  check xs "quantile";
  if q < 0.0 || q > 1.0 then invalid_arg "Stats.quantile: q out of range";
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor pos) in
  let frac = pos -. float_of_int i in
  if i >= n - 1 then sorted.(n - 1)
  else sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))

let median xs = quantile 0.5 xs

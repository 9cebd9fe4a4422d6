type t = { xs : float array; ys : float array }

let of_points pts =
  if pts = [] then invalid_arg "Interp.of_points: empty";
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) pts in
  let rec check = function
    | (a, _) :: ((b, _) :: _ as rest) ->
      if a = b then invalid_arg "Interp.of_points: duplicate abscissa";
      check rest
    | [ _ ] | [] -> ()
  in
  check sorted;
  let xs = Array.of_list (List.map fst sorted) in
  let ys = Array.of_list (List.map snd sorted) in
  { xs; ys }

let of_sorted_arrays xs ys =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Interp.of_sorted_arrays: empty";
  if n <> Array.length ys then
    invalid_arg "Interp.of_sorted_arrays: length mismatch";
  for i = 0 to n - 2 do
    if xs.(i) >= xs.(i + 1) then
      invalid_arg "Interp.of_sorted_arrays: abscissae must strictly increase"
  done;
  { xs; ys }

let eval { xs; ys } x =
  let n = Array.length xs in
  if x <= xs.(0) then ys.(0)
  else if x >= xs.(n - 1) then ys.(n - 1)
  else begin
    (* binary search for the segment containing x *)
    let rec find lo hi =
      if hi - lo <= 1 then lo
      else begin
        let m = (lo + hi) / 2 in
        if xs.(m) <= x then find m hi else find lo m
      end
    in
    let i = find 0 (n - 1) in
    let x0 = xs.(i) and x1 = xs.(i + 1) in
    let y0 = ys.(i) and y1 = ys.(i + 1) in
    y0 +. ((y1 -. y0) *. (x -. x0) /. (x1 -. x0))
  end

let points { xs; ys } =
  Array.to_list (Array.map2 (fun x y -> (x, y)) xs ys)

let crossings { xs; ys } level =
  let n = Array.length xs in
  let acc = ref [] in
  for i = 0 to n - 2 do
    let d0 = ys.(i) -. level and d1 = ys.(i + 1) -. level in
    if d0 = 0.0 then begin
      (* count an exact sample hit once, when it is a genuine crossing or
         the first sample *)
      let prev = if i = 0 then 0.0 else ys.(i - 1) -. level in
      if i = 0 || prev *. d1 < 0.0 || (prev = 0.0 && d1 <> 0.0) then
        acc := xs.(i) :: !acc
    end
    else if d0 *. d1 < 0.0 then begin
      let frac = d0 /. (d0 -. d1) in
      acc := (xs.(i) +. (frac *. (xs.(i + 1) -. xs.(i)))) :: !acc
    end
  done;
  if n > 1 && ys.(n - 1) = level && ys.(n - 2) <> level then
    acc := xs.(n - 1) :: !acc;
  List.rev !acc

let first_crossing c level =
  match crossings c level with [] -> None | x :: _ -> Some x

let intersections a b =
  let grid =
    List.sort_uniq Float.compare
      (Array.to_list a.xs @ Array.to_list b.xs)
  in
  let diff = List.map (fun x -> (x, eval a x -. eval b x)) grid in
  crossings (of_points diff) 0.0

let map_y f { xs; ys } = { xs; ys = Array.map f ys }

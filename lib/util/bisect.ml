exception No_bracket

let root ?tol ?(max_iter = 200) f a b =
  let fa = f a and fb = f b in
  if fa = 0.0 then a
  else if fb = 0.0 then b
  else if fa *. fb > 0.0 then raise No_bracket
  else begin
    let tol =
      match tol with
      | Some t -> t
      | None -> Float.max 1e-15 (1e-9 *. Float.abs (b -. a))
    in
    let rec loop a fa b iter =
      let m = 0.5 *. (a +. b) in
      if Float.abs (b -. a) <= tol || iter >= max_iter then m
      else begin
        let fm = f m in
        if fm = 0.0 then m
        else if fa *. fm < 0.0 then loop a fa m (iter + 1)
        else loop m fm b (iter + 1)
      end
    in
    loop a fa b 0
  end

let threshold ?tol ?(max_iter = 200) pred lo hi =
  let plo = pred lo and phi = pred hi in
  if plo = phi then raise No_bracket;
  let tol =
    match tol with
    | Some t -> t
    | None -> Float.max 1e-15 (1e-9 *. Float.abs (hi -. lo))
  in
  let rec loop lo hi iter =
    if Float.abs (hi -. lo) <= tol || iter >= max_iter then 0.5 *. (lo +. hi)
    else begin
      let m = 0.5 *. (lo +. hi) in
      if pred m = plo then loop m hi (iter + 1) else loop lo m (iter + 1)
    end
  in
  loop lo hi 0

let threshold_log ?(rel_tol = 1e-3) ?(max_iter = 200) pred lo hi =
  assert (lo > 0.0 && hi > 0.0);
  let pred_log x = pred (exp x) in
  exp (threshold ~tol:(log1p rel_tol) ~max_iter pred_log (log lo) (log hi))

type 'a guarded = All_true | All_false | Crossing of 'a

let guarded generic pred lo hi =
  let plo = pred lo and phi = pred hi in
  if plo && phi then All_true
  else if (not plo) && not phi then All_false
  else Crossing (generic pred lo hi)

let guarded_threshold ?tol ?max_iter pred lo hi =
  guarded (fun p a b -> threshold ?tol ?max_iter p a b) pred lo hi

exception No_bracket

(* bisection steps before giving up on [tol] *)
let max_iter = 200

let threshold ?tol pred lo hi =
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

let threshold_log ?(rel_tol = 1e-3) pred lo hi =
  assert (lo > 0.0 && hi > 0.0);
  let pred_log x = pred (exp x) in
  exp (threshold ~tol:(log1p rel_tol) pred_log (log lo) (log hi))

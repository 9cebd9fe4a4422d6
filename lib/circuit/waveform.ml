type pulse = {
  v0 : float;
  v1 : float;
  delay : float;
  rise : float;
  width : float;
  fall : float;
  period : float option;
}

type t = Dc of float | Pulse of pulse | Pwl of (float * float) array

let dc v = Dc v

let pulse ?period ~v0 ~v1 ~delay ~rise ~width ~fall () =
  if rise < 0.0 || width < 0.0 || fall < 0.0 || delay < 0.0 then
    invalid_arg "Waveform.pulse: negative duration";
  (match period with
  | Some p when p < rise +. width +. fall ->
    invalid_arg "Waveform.pulse: period shorter than pulse"
  | _ -> ());
  Pulse { v0; v1; delay; rise; width; fall; period }

let pwl pts =
  let arr = Array.of_list pts in
  for i = 0 to Array.length arr - 2 do
    if fst arr.(i) >= fst arr.(i + 1) then
      invalid_arg "Waveform.pwl: breakpoints must strictly increase"
  done;
  if Array.length arr = 0 then invalid_arg "Waveform.pwl: empty";
  Pwl arr

let pwl_steps ~t_edge v0 steps =
  if t_edge <= 0.0 then invalid_arg "Waveform.pwl_steps: t_edge <= 0";
  let rec build prev_v acc = function
    | [] -> List.rev acc
    | (t, v) :: rest ->
      (* hold prev value until t, then ramp to v over t_edge *)
      build v ((t +. t_edge, v) :: (t, prev_v) :: acc) rest
  in
  match steps with
  | [] -> Dc v0
  | (t0, _) :: _ ->
    let start = if t0 > 0.0 then [ (0.0, v0) ] else [] in
    pwl (start @ build v0 [] steps)

let[@inline] eval_pulse p t =
  if t < p.delay then p.v0
  else begin
    let t' =
      match p.period with
      | None -> t -. p.delay
      | Some per -> Float.rem (t -. p.delay) per
    in
    if t' < p.rise then
      if p.rise = 0.0 then p.v1
      else p.v0 +. ((p.v1 -. p.v0) *. t' /. p.rise)
    else if t' < p.rise +. p.width then p.v1
    else if t' < p.rise +. p.width +. p.fall then begin
      let f = (t' -. p.rise -. p.width) /. p.fall in
      p.v1 +. ((p.v0 -. p.v1) *. f)
    end
    else p.v0
  end

(* the value on interval [i], the one with [fst arr.(i) <= t < fst
   arr.(i + 1)] *)
let[@inline] lerp arr i t =
  let t0, v0 = arr.(i) and t1, v1 = arr.(i + 1) in
  v0 +. ((v1 -. v0) *. (t -. t0) /. (t1 -. t0))

let[@inline] eval_pwl arr t =
  let n = Array.length arr in
  if t <= fst arr.(0) then snd arr.(0)
  else if t >= fst arr.(n - 1) then snd arr.(n - 1)
  else begin
    (* bisection as a loop: a local recursive closure would be
       allocated on every evaluation, once per control per time step *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let m = (!lo + !hi) / 2 in
      if fst arr.(m) <= t then lo := m else hi := m
    done;
    lerp arr !lo t
  end

let[@inline] eval_unboxed w t =
  match w with
  | Dc v -> v
  | Pulse p -> eval_pulse p t
  | Pwl arr -> eval_pwl arr t

let eval w t = eval_unboxed w t

(* The value is stored straight into a float array, so unlike [eval]'s
   result it is never boxed. A PWL waveform starts from its cursor's
   interval and walks to the one that holds [t]: the interval is
   unique (breakpoints strictly increase), so it is the one bisection
   finds, whatever the cursor held, and a time point that moves
   forward a step walks at most an interval or two. *)
let eval_into ws ~cursors times k out =
  let t = times.(k) in
  for i = 0 to Array.length ws - 1 do
    match ws.(i) with
    | Pwl arr ->
      let n = Array.length arr in
      if t <= fst arr.(0) then out.(i) <- snd arr.(0)
      else if t >= fst arr.(n - 1) then out.(i) <- snd arr.(n - 1)
      else begin
        let c = ref (Int.max 0 (Int.min (n - 2) cursors.(i))) in
        while fst arr.(!c + 1) <= t do incr c done;
        while fst arr.(!c) > t do decr c done;
        cursors.(i) <- !c;
        out.(i) <- lerp arr !c t
      end
    | w -> out.(i) <- eval_unboxed w t
  done

let shift dt = function
  | Dc v -> Dc v
  | Pulse p -> Pulse { p with delay = p.delay +. dt }
  | Pwl arr -> Pwl (Array.map (fun (t, v) -> (t +. dt, v)) arr)

let breakpoints ~until w =
  let keep ts = List.filter (fun t -> t >= 0.0 && t <= until) ts in
  match w with
  | Dc _ -> []
  | Pwl arr -> keep (Array.to_list (Array.map fst arr))
  | Pulse p ->
    let one_period t0 =
      [ t0; t0 +. p.rise; t0 +. p.rise +. p.width;
        t0 +. p.rise +. p.width +. p.fall ]
    in
    let starts =
      match p.period with
      | None -> [ p.delay ]
      | Some per ->
        let rec loop t acc =
          if t > until then List.rev acc else loop (t +. per) (t :: acc)
        in
        loop p.delay []
    in
    keep (List.concat_map one_period starts)

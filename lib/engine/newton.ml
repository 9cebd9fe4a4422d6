module L = Dramstress_util.Linalg
module Chaos = Dramstress_util.Chaos
module Tel = Dramstress_util.Telemetry

exception No_convergence of { t : float; iterations : int; worst : float }

exception
  Numerical_health of { t : float; iterations : int; what : string }

exception Timeout of { t : float; budget_s : float }

let () =
  Printexc.register_printer (function
    | Numerical_health { t; iterations; what } ->
      Some
        (Printf.sprintf
           "Newton.Numerical_health { t=%.4g s; iteration %d; %s }" t
           iterations what)
    | Timeout { t; budget_s } ->
      Some
        (Printf.sprintf
           "Newton.Timeout { t=%.4g s; wall-clock budget %.3g s exceeded }" t
           budget_s)
    | _ -> None)

let c_solves = Tel.Counter.make "engine.newton.solves"
let c_iterations = Tel.Counter.make "engine.newton.iterations"
let c_failures = Tel.Counter.make "engine.newton.failures"
let c_clamps = Tel.Counter.make "engine.newton.step_clamps"
let c_nan = Tel.Counter.make "engine.health.nan_detected"
let c_singular = Tel.Counter.make "engine.health.singular_lu"

let h_iterations =
  Tel.Histogram.make ~unit_:"iters" ~lo:1.0 ~hi:128.0 ~buckets:14
    "engine.newton.iterations_per_solve"

(* [Float.max acc a] for [acc] and [a] that are NaN or >= +0.0 (what
   [Float.abs] yields): a NaN, once seen, sticks *)
let[@inline] max_abs (acc : float) (a : float) =
  if a > acc || a <> a then a else acc

let[@inline] clamp m dx = if dx > m then m else if dx < -.m then -.m else dx

(* the bound for a state whose largest magnitude is [m] *)
let[@inline] bound ~(opts : Options.t) m =
  opts.tol_scale *. (Options.abstol +. (Options.reltol *. m))

(* One pass over the new iterate: the clamped update from [x_new] onto
   [x], the worst free-node move, [max |x|] and the finiteness sum; see
   the interface. Plain comparisons instead of [Float.min]/[Float.max]
   (which box their result even when inlined), local float refs and an
   indexed loop keep it allocation-free; the three floats leave through
   [acc], since a float or tuple result would be boxed. *)
let[@inline] update ~max_step_v:m ~n_free x x_new acc =
  let worst = ref 0.0 and clamped = ref 0 in
  let mx = ref acc.(1) and sum = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    let xi =
      if i < n_free then begin
        let dx = x_new.(i) -. x.(i) in
        let dx_clamped = clamp m dx in
        if dx_clamped <> dx then incr clamped;
        worst := max_abs !worst (Float.abs dx);
        x.(i) +. dx_clamped
      end
      else x_new.(i)
    in
    x.(i) <- xi;
    mx := max_abs !mx (Float.abs xi);
    sum := !sum +. (xi -. xi)
  done;
  acc.(0) <- !worst;
  acc.(1) <- !mx;
  acc.(2) <- !sum;
  !clamped

let record_solve iterations =
  Tel.Counter.incr c_solves;
  Tel.Counter.add c_iterations iterations;
  (* the sample is a boxed float: build it only when it is kept *)
  if Tel.enabled () then
    Tel.Histogram.observe h_iterations (float_of_int iterations)

let fail ~t_now ~iter ~worst =
  Tel.Counter.incr c_failures;
  Tel.Counter.add c_iterations iter;
  raise (No_convergence { t = t_now; iterations = iter; worst })

let sick ~t_now ~iter what =
  Tel.Counter.incr c_failures;
  Tel.Counter.add c_iterations iter;
  raise (Numerical_health { t = t_now; iterations = iter; what })

(* a singular LU: counted on the health counter, then converted to the
   typed error *)
let sick_singular ~t_now ~iter ~row ~pivot =
  Tel.Counter.incr c_singular;
  sick ~t_now ~iter
    (Printf.sprintf "singular system (row %d, pivot %.3g)" row pivot)

(* runtime health monitor. All three checks raise typed errors that the
   retry ladder understands — a sick state never leaves the solver as a
   plausible-looking voltage. *)

(* v -. v is 0 for finite v and nan for nan/inf, and a nan, once added,
   sticks: two running sums (independent, so their adds overlap) judge
   the whole state with no branch per unknown, and only a sick state
   pays for a second pass to find its first bad unknown. Local floats
   keep the scan unboxed without flambda, unlike Float.is_finite calls;
   the loop bounds keep the unsafe reads in range. *)
let check_finite ~t_now ~iter x =
  let n = Array.length x in
  let a = ref 0.0 and b = ref 0.0 in
  let i = ref 0 in
  while !i + 1 < n do
    let v = Array.unsafe_get x !i and w = Array.unsafe_get x (!i + 1) in
    a := !a +. (v -. v);
    b := !b +. (w -. w);
    i := !i + 2
  done;
  if !i < n then begin
    let v = x.(!i) in
    a := !a +. (v -. v)
  end;
  if not (!a +. !b = 0.0) then begin
    let bad = ref 0 in
    while (let v = x.(!bad) in v -. v = 0.0) do incr bad done;
    Tel.Counter.incr c_nan;
    sick ~t_now ~iter
      (Printf.sprintf "non-finite state (%h at unknown %d)" x.(!bad) !bad)
  end

(* The clock is read once per 16 deadline checks, with the phase carried
   across solves: most solves converge in a handful of iterations, so a
   per-solve phase would still pay one gettimeofday per time point,
   while the shared counter amortizes the poll over ~16 Newton
   iterations regardless of solve boundaries. A hung (or already
   expired) run is cut within 16 iterations of the deadline — tens of
   microseconds against seconds-scale budgets. The counter is a plain
   ref: deadline runs are one-lane and per-domain, and a racy phase
   merely shifts when the next poll lands. *)
let poll_phase = ref 0

let check_deadline ~deadline_at ~t_now =
  match deadline_at with
  | None -> ()
  | Some (at, budget_s) ->
    let ph = !poll_phase + 1 in
    poll_phase := ph;
    if ph land 15 = 0 && Unix.gettimeofday () > at then
      raise (Timeout { t = t_now; budget_s })

(* the chaos sites local to the solver; both are no-ops while dormant *)
let chaos_diverge () =
  Chaos.armed () && Chaos.fire Chaos.Force_newton_diverge

let chaos_nan x =
  if Chaos.armed () && Chaos.fire Chaos.Inject_nan_state then
    x.(0) <- Float.nan

(* One Newton iteration on [x], in place, entirely inside [ws] (no
   per-iteration matrix allocation) from the controls left by the last
   [Mna.eval_controls_into]. The updated state is always scanned for
   NaN/Inf. The verdict is a bool, not the worst move: a float result
   would be boxed on every iteration. *)
let iterate sys ws ~(opts : Options.t) ~t_now ~reactive ~iter ~diverge x =
  Mna.assemble_into_pre sys ws ~opts ~x ~reactive;
  (match Mna.solve_in_place sys ws with
  | () -> ()
  | exception L.Singular { row; pivot } ->
    sick_singular ~t_now ~iter ~row ~pivot);
  let x_new = Mna.solution ws in
  (* the bound's max|x| takes in the fixed node voltages too, as when
     they were unknowns *)
  let acc = Mna.newton_acc ws in
  acc.(1) <- (Mna.fixed_abs_max ws).(0);
  Tel.Counter.add c_clamps
    (update ~max_step_v:opts.max_step_v ~n_free:(Mna.n_free_nodes sys) x
       x_new acc);
  (* the chaos site sits between the update and the scan, whose verdict
     it may change *)
  chaos_nan x;
  if not (acc.(2) = 0.0) || Chaos.armed () then check_finite ~t_now ~iter x;
  let worst = acc.(0) in
  let tol = bound ~opts acc.(1) in
  if (not diverge) && worst <= tol then begin
    record_solve iter;
    true
  end
  else if iter >= opts.max_newton then fail ~t_now ~iter ~worst
  else false

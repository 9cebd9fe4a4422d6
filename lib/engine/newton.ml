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

(* shared convergence bookkeeping: apply the clamped update from [x_new]
   onto [x] and return the worst node-voltage move. Plain comparisons
   instead of [Float.min]/[Float.max] (which box their result even when
   inlined) and indexed loops instead of a fold keep this per-iteration
   path allocation-free. For a clamp [max_step_v >= 0] the result is
   [Float.max (-.m) (Float.min m dx)] for every [dx], signed zeros and
   NaN (which passes through unclamped, and so is counted) included. *)
let apply_update ~(opts : Options.t) ~n_node_unknowns x x_new =
  let m = opts.max_step_v in
  let worst = ref 0.0 in
  let clamped = ref 0 in
  for i = 0 to Array.length x - 1 do
    let dx = x_new.(i) -. x.(i) in
    if i < n_node_unknowns then begin
      let dx_clamped = if dx > m then m else if dx < -.m then -.m else dx in
      if dx_clamped <> dx then incr clamped;
      x.(i) <- x.(i) +. dx_clamped;
      worst := max_abs !worst (Float.abs dx)
    end
    else x.(i) <- x_new.(i)
  done;
  Tel.Counter.add c_clamps !clamped;
  !worst

let tolerance ~(opts : Options.t) x =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := max_abs !acc (Float.abs x.(i))
  done;
  opts.abstol +. (opts.reltol *. !acc)

let record_solve iterations =
  Tel.Counter.incr c_solves;
  Tel.Counter.add c_iterations iterations;
  Tel.Histogram.observe h_iterations (float_of_int iterations)

let fail ~t_now ~iter ~worst =
  Tel.Counter.incr c_failures;
  Tel.Counter.add c_iterations iter;
  raise (No_convergence { t = t_now; iterations = iter; worst })

let sick ~t_now ~iter what =
  Tel.Counter.incr c_failures;
  Tel.Counter.add c_iterations iter;
  raise (Numerical_health { t = t_now; iterations = iter; what })

(* a singular LU surfaced from either factorization path: counted on the
   health counter, then converted to the typed error *)
let sick_singular ~t_now ~iter ~row ~pivot =
  Tel.Counter.incr c_singular;
  sick ~t_now ~iter
    (Printf.sprintf "singular system (row %d, pivot %.3g)" row pivot)

(* runtime health monitor. All three checks raise typed errors that the
   retry ladder understands — a sick state never leaves the solver as a
   plausible-looking voltage. *)

let check_finite ~t_now ~iter x =
  let n = Array.length x in
  let bad = ref (-1) in
  for i = 0 to n - 1 do
    (* v -. v is 0 for finite v, nan for nan/inf; the local float keeps
       the scan unboxed without flambda, unlike a Float.is_finite call *)
    let v = x.(i) in
    if !bad < 0 && not (v -. v = 0.0) then bad := i
  done;
  if !bad >= 0 then begin
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

(* One Newton iteration on [x], in place. The incremental path works
   entirely inside [ws] (zero per-iteration matrix allocation) from the
   controls left by the last [Mna.eval_controls_into]; with
   [naive_assembly] the reference path allocates and factors a fresh
   system instead, honouring the workspace's resistor override. *)
let iterate sys ws ~(opts : Options.t) ~t_now ~reactive ~iter x =
  let x_new =
    if opts.naive_assembly then begin
      let mat, rhs =
        Mna.assemble ?override:(Mna.resistor_override ws) sys ~opts ~t_now ~x
          ~reactive
      in
      Mna.record_factor_solve ();
      match L.lu_solve (L.lu_factor mat) rhs with
      | x_new -> x_new
      | exception L.Singular { row; pivot } ->
        sick_singular ~t_now ~iter ~row ~pivot
    end
    else begin
      Mna.assemble_into_pre sys ws ~opts ~x ~reactive;
      (match Mna.solve_in_place sys ws with
      | () -> ()
      | exception L.Singular { row; pivot } ->
        sick_singular ~t_now ~iter ~row ~pivot);
      Mna.solution ws
    end
  in
  let worst =
    apply_update ~opts ~n_node_unknowns:(Mna.n_nodes sys - 1) x x_new
  in
  chaos_nan x;
  if opts.health_guards then check_finite ~t_now ~iter x;
  worst

let solve sys ?ws ?deadline_at ~(opts : Options.t) ~t_now ~reactive ~x0 () =
  let ws = match ws with Some w -> w | None -> Mna.make_workspace sys in
  let x = Array.copy x0 in
  let diverge = chaos_diverge () in
  (* t_now is fixed for the whole solve: walk the control waveforms
     once, not once per iteration *)
  Mna.eval_controls_into sys ws ~t_now;
  let rec loop iter =
    check_deadline ~deadline_at ~t_now;
    let worst = iterate sys ws ~opts ~t_now ~reactive ~iter x in
    if (not diverge) && worst <= tolerance ~opts x then begin
      record_solve iter;
      x
    end
    else if iter >= opts.max_newton then fail ~t_now ~iter ~worst
    else loop (iter + 1)
  in
  loop 1

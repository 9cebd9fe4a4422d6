(** Damped Newton–Raphson iteration of one (possibly nonlinear) MNA
    system: the building blocks {!Ensemble} iterates every lane through,
    interleaving the lanes' iterations. *)

exception No_convergence of { t : float; iterations : int; worst : float }
(** Raised when the iteration cap is hit; [worst] is the largest remaining
    voltage update. *)

exception Numerical_health of { t : float; iterations : int; what : string }
(** Raised by the runtime health monitor when the iteration produces a
    numerically sick state: a NaN/Inf in the unknown vector (counted in
    [engine.health.nan_detected]) or a singular/rank-deficient system
    matrix (counted in [engine.health.singular_lu]). [what] is a short
    human-readable description. Treated as recoverable by the
    {!Dramstress_dram.Ops} retry ladder, exactly like
    {!No_convergence}. *)

exception Timeout of { t : float; budget_s : float }
(** Raised by the cooperative deadline check when the wall-clock budget
    ([Sim_config.deadline]) passed down as [deadline_at] is exceeded.
    Deliberately NOT recoverable: retrying a point that already burned
    its budget only burns more, so it surfaces directly as a [Failed]
    sweep outcome. *)

(** [iterate sys ws ~opts ~t_now ~reactive ~iter ~diverge x] performs
    Newton iteration number [iter] on [x] in place and returns whether
    the solve converged: whether the worst node-voltage move (before
    clamping) is within [abstol + reltol * max |v|], the maximum taken
    over the updated [x] and the fixed node voltages
    ({!Mna.fixed_abs_max}), so the bound is the one a state holding
    every node as an unknown would give. A converged
    solve is counted in the solve/iteration telemetry. An iteration
    that reaches [opts.max_newton] unconverged raises {!No_convergence};
    [diverge] (the [Force_newton_diverge] chaos site) holds the solve
    unconverged until then. It assembles into [ws] from the controls
    left by the last {!Mna.eval_controls_into} and factors with
    {!Mna.solve_in_place} (no matrix allocation). Node-voltage updates
    are clamped to [opts.max_step_v].

    The state vector is checked for NaN/Inf after every update, and a
    singular LU is converted into {!Numerical_health}. The update, the
    worst move, the maximum and the finiteness sum are one pass over
    [x] ({!update}, into {!Mna.newton_acc}); the [Inject_nan_state]
    chaos site runs after it, before the check. *)
val iterate :
  Mna.t ->
  Mna.workspace ->
  opts:Options.t ->
  t_now:float ->
  reactive:Mna.reactive ->
  iter:int ->
  diverge:bool ->
  float array ->
  bool

(** [check_deadline ~deadline_at ~t_now] raises {!Timeout} once the
    wall clock is past [deadline_at]. The clock is read on one call in
    16, with the phase carried across solves and lanes, so the poll is
    amortized and an expired budget is noticed within 16 calls. *)
val check_deadline : deadline_at:(float * float) option -> t_now:float -> unit

(** [check_finite ~t_now ~iter x] raises {!Numerical_health} naming the
    first unknown of [x] that holds a NaN or an infinity. {!iterate}
    judges each update by {!update}'s finiteness sum and calls this
    only to name the bad unknown of a sick state, or on every
    iteration while chaos is armed. *)
val check_finite : t_now:float -> iter:int -> float array -> unit

(** [update ~max_step_v ~n_free x x_new acc] is {!iterate}'s single pass
    over the new iterate. For [i < n_free] (the node voltages) it moves
    [x.(i)] by [x_new.(i) -. x.(i)] clamped to [±max_step_v], exactly
    [Float.max (-.m) (Float.min m dx)] for [max_step_v >= 0], signed
    zeros included; a NaN move passes through unclamped. Past [n_free]
    (branch currents) it copies [x_new.(i)]. It leaves in [acc]:
    [acc.(0)] the worst node move before clamping, [acc.(1)] the
    maximum of [acc.(1)] on entry and every [|x.(i)|] after the update,
    and [acc.(2)] the sum of [x.(i) -. x.(i)], [0.0] exactly when every
    entry is finite. Both maxima fold like [Float.max], so a NaN sticks.
    Returns the number of moves whose clamped value differs from the
    move, NaN moves included. *)
val update :
  max_step_v:float ->
  n_free:int ->
  float array ->
  float array ->
  float array ->
  int

(** [chaos_diverge ()] queries the [Force_newton_diverge] chaos site —
    [true] forces this solve to run to its iteration cap. *)
val chaos_diverge : unit -> bool

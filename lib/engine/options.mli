(** Numerical options for the solver. *)

type integrator = Backward_euler | Trapezoidal

(** [epoch] is the numerics epoch, printed into every store key: a
    change that deliberately moves waveform bits bumps it. *)
val epoch : int

(** [gmin] is the conductance, 1e-12 S, that ties every free node to
    ground. *)
val gmin : float

(** [abstol] (1e-6 V) and [reltol] (1e-4) give Newton's convergence
    bound at [tol_scale = 1.0]: a time point has converged once no free
    node moves by more than [tol_scale *. (abstol +. reltol *. max |v|)]. *)
val abstol : float

val reltol : float

type t = {
  tol_scale : float;
      (** multiplier on Newton's convergence bound ({!abstol},
          {!reltol}); 1.0 in production. The tests that compare the engine
          with a full-MNA reference set 1e-6, which makes each step's
          fixed point unique far below their comparison bounds. *)
  max_newton : int;     (** Newton iteration cap per time point *)
  max_step_v : float;   (** Newton per-iteration voltage step clamp, V *)
  temp : float;         (** simulation temperature, K *)
  integrator : integrator;
  dt_scale : float;
      (** multiplier applied to every transient segment's nominal time
          step (must be positive; default 1.0). Values below 1 refine
          the integration uniformly without touching the segment plan —
          the knob the retry/degradation policy
          ({!Dramstress_dram.Sim_config.retry_policy}) uses to halve the
          initial dt after a Newton failure. *)
}

(** Defaults: tol_scale 1.0, 80 Newton iterations, 1.0 V step clamp,
    300.15 K, backward Euler, dt_scale 1.0. *)
val default : t

(** Numerical options for the solver. *)

type integrator = Backward_euler | Trapezoidal

type t = {
  abstol : float;       (** absolute voltage tolerance, V *)
  reltol : float;       (** relative tolerance *)
  max_newton : int;     (** Newton iteration cap per time point *)
  gmin : float;         (** node-to-ground regularization conductance, S *)
  max_step_v : float;   (** Newton per-iteration voltage step clamp, V *)
  temp : float;         (** simulation temperature, K *)
  integrator : integrator;
  naive_assembly : bool;
      (** use the reference from-scratch MNA assembly and allocating LU
          path instead of the incremental workspace engine. Slower;
          kept alive as the golden baseline for regression tests and
          A/B benchmarks. *)
  dt_scale : float;
      (** multiplier applied to every transient segment's nominal time
          step (must be positive; default 1.0). Values below 1 refine
          the integration uniformly without touching the segment plan —
          the knob the retry/degradation policy
          ({!Dramstress_dram.Sim_config.retry_policy}) uses to halve the
          initial dt after a Newton failure. *)
  health_guards : bool;
      (** per-iteration numerical health checks in {!Newton}: the state
          vector is scanned for NaN/Inf after every update and a
          singular LU is converted into a typed
          {!Newton.Numerical_health} error instead of propagating
          garbage. Default [true]; the [false] setting exists for the
          guard-overhead A/B benchmark, not for production use. *)
}

(** Defaults: abstol 1e-6 V, reltol 1e-4, 80 Newton iterations, gmin 1e-12 S,
    1.0 V step clamp, 300.15 K, backward Euler, incremental assembly,
    dt_scale 1.0, health guards on. *)
val default : t

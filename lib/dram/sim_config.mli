(** Bundled simulation configuration.

    [Sim_config.t] is the one way to parameterise a simulation: the
    technology, solver options, step resolution, sweep width, retry
    policy and per-point deadline travel together as one value. Every
    simulating entry point — {!Ops.run}/{!Ops.run_batch} and each sweep
    layer above them — takes it as [?config] (default {!default}) and
    passes it down whole, so every simulation a sweep triggers runs
    under the same settings. {!v} is the only constructor with
    per-field optionals. *)

(** {1 Retry / degradation policy}

    What {!Ops.run} does when the transient solver fails on a point
    ([Transient.Step_failed] / [Newton.No_convergence]): each stage
    derives a degraded configuration and the run is retried, in order,
    until one succeeds or the list is exhausted. *)

type retry_stage =
  | Halve_dt
      (** retry with the initial time step halved
          ([Options.dt_scale] x0.5) *)
  | Raise_steps of int
      (** retry with [steps_per_cycle] multiplied by the factor
          (at least 2) *)
  | Damped_newton of { max_step_v : float; max_newton_scale : int }
      (** retry with a damped Newton: the per-iteration voltage clamp
          tightened to [max_step_v] and the iteration cap multiplied by
          [max_newton_scale] — slow but robust *)

type retry_policy = { stages : retry_stage list }

(** [no_retry] fails immediately, pre-resilience behaviour: the first
    solver error propagates unchanged. *)
val no_retry : retry_policy

(** [default_retry] is [Halve_dt], then [Raise_steps 4], then
    [Damped_newton { max_step_v = 0.25; max_newton_scale = 4 }]. *)
val default_retry : retry_policy

val pp_stage : Format.formatter -> retry_stage -> unit

(** [stage_name s] — short label used in telemetry and error reports,
    e.g. ["halve-dt"], ["steps-x4"], ["damped-newton(0.25V,x4)"]. *)
val stage_name : retry_stage -> string

type t = {
  tech : Tech.t;             (** technology / cell parameters *)
  sim : Dramstress_engine.Options.t option;
      (** solver option overrides; [None] means engine defaults.
          [Ops.run] replaces the temperature field from the stress. *)
  steps_per_cycle : int;     (** transient resolution per clock cycle *)
  jobs : int option;
      (** domain count for parallel sweeps; [None] defers to
          [DRAMSTRESS_JOBS] then the recommended domain count
          ({!Dramstress_util.Par.resolve_jobs}) *)
  lanes : int option;
      (** ensemble width for batched sweeps — how many operating points
          one {!Ops.run_batch} integrates simultaneously; [None] defers
          to [DRAMSTRESS_LANES] then
          {!Dramstress_util.Par.default_lanes}
          ({!Dramstress_util.Par.resolve_lanes}). [Some 1] runs every
          point as its own one-lane ensemble. *)
  retry : retry_policy;
      (** what {!Ops.run} tries when the solver fails on a point *)
  deadline : float option;
      (** wall-clock budget per point, in seconds: each {!Ops.run}
          request (covering its whole retry ladder) must finish within
          this budget or fail with {!Dramstress_engine.Newton.Timeout}.
          [None] (the default) never times out. The budget is converted
          to an absolute instant when the request starts, so ladder
          retries spend from the same allowance instead of resetting
          it. *)
}

(** [default]: {!Tech.default}, engine-default solver options,
    400 steps per cycle, automatic job count, {!default_retry}, no
    deadline. *)
val default : t

(** [v ?tech ?sim ?steps_per_cycle ?jobs ?lanes ?retry ?deadline ()]
    builds a config; omitted fields take their {!default} values.
    Raises [Invalid_argument] as {!validate} does. *)
val v :
  ?tech:Tech.t ->
  ?sim:Dramstress_engine.Options.t ->
  ?steps_per_cycle:int ->
  ?jobs:int ->
  ?lanes:int ->
  ?retry:retry_policy ->
  ?deadline:float ->
  unit ->
  t

(** [validate t] raises [Invalid_argument] if [steps_per_cycle < 1], the
    retry policy has an invalid stage, or [deadline <= 0]. {!v} checks
    the records it builds; {!Ops.run_batch} checks every config it is
    handed, so a hand-built record ([{ default with ... }]) is held to
    the same rules. *)
val validate : t -> unit

(** [resolve_jobs t] is the effective domain count:
    [Par.resolve_jobs ?jobs:t.jobs ()]. *)
val resolve_jobs : t -> int

(** [resolve_lanes t] is the effective ensemble width:
    [Par.resolve_lanes ?lanes:t.lanes ()] — the explicit field, else
    [DRAMSTRESS_LANES], else {!Dramstress_util.Par.default_lanes};
    junk or non-positive env values fall back to the default, explicit
    values are clamped to at least 1. *)
val resolve_lanes : t -> int

(** [sweep_lanes t] is the ensemble width sweeps cut their points into:
    1 under a per-point [deadline] (a budget has no meaning inside a
    shared solve) or an armed chaos harness (whose fault plans reason
    about per-point runs), else {!resolve_lanes}. *)
val sweep_lanes : t -> int

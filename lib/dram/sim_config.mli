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
      (** ensemble width: the most operating points {!Ops.run_batch}
          integrates in one ensemble; [None] defers to
          [DRAMSTRESS_LANES] then {!Dramstress_util.Par.default_lanes}
          ({!Dramstress_util.Par.resolve_lanes}). [Some 1] runs every
          point as its own one-lane ensemble. The width sets the speed
          only: a lane's result is the same bits at every width. *)
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

(** [default_steps_per_cycle] is 100, the coarsest grid at which every
    Table-1 row keeps the stressed SC and directions of a 1600-step
    reference and every border stays within twice the search window's
    [rel_tol] of it ([bench convergence]). *)
val default_steps_per_cycle : int

(** [default]: {!Tech.default}, engine-default solver options,
    {!default_steps_per_cycle} steps per cycle, automatic job count,
    {!default_retry}, no deadline. *)
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

(** [physics_key t] is the physics every stored value depends on: the
    numerics epoch ({!Dramstress_engine.Options.epoch}), every
    {!Tech.t} field, the solver options but [temp] (set from the
    stress), [steps_per_cycle] and the retry ladder, as named [k=v]
    fields with [%h] floats. Two constants of the engine are printed
    too, so that every key recorded before they stopped being options
    keeps its text: [gmin] ({!Dramstress_engine.Options.gmin}) and
    [integrator=be] (backward Euler, the engine's only rule). [jobs],
    [lanes] and [deadline] stay out: they only group lanes into
    ensembles and domains ({!Ops.run_batch}), which never moves a
    lane's bits, and a deadline can fail a point but never change
    one. *)
val physics_key : t -> string

(** [key t layer ~stress ~kind ~placement fields] is the store key of
    every layer: ["layer|physics=<MD5 of physics_key t>|<Stress.key
    stress>|defect=O1/true|field|..."]. Apply it to [t] once per sweep:
    the physics is printed at that application. *)
val key :
  t ->
  string ->
  stress:Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  string list ->
  string

(** [resolve_jobs t] is the effective domain count:
    [Par.resolve_jobs ?jobs:t.jobs ()]. *)
val resolve_jobs : t -> int

(** [resolve_lanes t] is the effective ensemble width:
    [Par.resolve_lanes ?lanes:t.lanes ()] — the explicit field, else
    [DRAMSTRESS_LANES], else {!Dramstress_util.Par.default_lanes};
    junk or non-positive env values fall back to the default, explicit
    values are clamped to at least 1. *)
val resolve_lanes : t -> int


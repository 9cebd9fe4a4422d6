(** Shmoo plots — the traditional black-box stress-optimization method
    the paper's Section 2 describes (and argues against).

    Two stress axes are swept; at each grid point the detection
    condition is executed electrically against the defective column and
    the pass/fail outcome recorded. *)

type outcome =
  | Pass        (** test passes: the defect is NOT caught here *)
  | Fail        (** test fails: the defect is caught *)
  | Invalid     (** the SC is not operable (e.g. cycle too short) *)
  | Errored
      (** the solver could not simulate the cell even after the retry
          policy; counted on [march.shmoo.errored_points] *)

type t = {
  x_axis : Dramstress_dram.Stress.axis;
  x_values : float list;
  y_axis : Dramstress_dram.Stress.axis;
  y_values : float list;
  grid : outcome array array;  (** [grid.(yi).(xi)] *)
  defect : Dramstress_defect.Defect.t;
}

(** [generate ?config ~stress ~defect ~detection ~x ~y ()] sweeps the
    two axes around the base [stress]; [x] and [y] pair an axis with
    its values. Every run uses [config] (default
    {!Dramstress_dram.Sim_config.default}; [Invalid_argument] if
    {!Dramstress_dram.Sim_config.validate} rejects it). Grid points are
    evaluated in parallel over at most [config.jobs] domains
    ({!Dramstress_dram.Sim_config.resolve_jobs}; [Some 1] is
    sequential). Each grid point observes the
    shared [core.sweep.point_ms] telemetry histogram and emits a
    [shmoo.point] span.

    A grid cell whose simulation fails with a solver error (even after
    the retry policy) renders as {!Errored} instead of aborting the
    plot. [checkpoint] records each finished cell in a
    {!Dramstress_util.Checkpoint} store so interrupted plots resume. *)
val generate :
  ?config:Dramstress_dram.Sim_config.t ->
  ?checkpoint:Dramstress_util.Checkpoint.t ->
  stress:Dramstress_dram.Stress.t ->
  defect:Dramstress_defect.Defect.t ->
  detection:Dramstress_core.Detection.t ->
  x:Dramstress_dram.Stress.axis * float list ->
  y:Dramstress_dram.Stress.axis * float list ->
  unit ->
  t

(** [fail_fraction shmoo] is the share of operable points that fail;
    {!Invalid} and {!Errored} cells are excluded from the base. *)
val fail_fraction : t -> float

(** [render shmoo] draws the classic character plot: ['.'] pass,
    ['X'] fail, ['?'] invalid, ['!'] errored. *)
val render : t -> string

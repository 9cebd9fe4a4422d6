(** Transient integration: the engine's one time-stepping loop.

    One circuit topology, one MNA assembly plan, one shared
    piecewise-uniform time grid — and N {e lanes}, each a variant of the
    operating point: its own initial conditions and (optionally) its
    own value for one designated resistor (the defect under sweep). A
    single simulation is a one-lane run. The lanes advance through the
    grid together:

    - the grid is given as segments [(t_end, dt)]: the solver steps with
      time step [dt] until [t_end], then switches to the next segment,
      so microsecond retention pauses sit next to sub-nanosecond
      switching activity without an adaptive controller;
    - control waveforms are evaluated once per time point and shared by
      every lane ({!Mna.eval_controls_into});
    - the capacitors integrate with variable-step BDF2 ({!Mna.reactive});
      a step whose lane has no usable last step — the t=0 solve, the
      first step after it, and any step more than twice the last
      (active cycle -> pause) — is backward Euler ([omega = 0]);
    - the sparse-LU symbolic analysis is shared across lanes (the
      structural pattern is a property of the topology, not the values);
    - Newton iterations run as {e masked sweeps}: each sweep performs
      one {!Newton.iterate} for every not-yet-converged lane, and lanes
      that converged early sit out the rest
      ([engine.ensemble.masked_lane_iters] counts those skipped
      iterations).

    Each Newton solve of a step of length [dt'] starts from a
    {e predicted} state, extrapolated from the lane's last three
    accepted states [x_{n-2}], [x_{n-1}], [x_n] (steps [h2], [h1]). When
    neither [dt'] nor [h1] grew ([dt' <= h1 <= h2], up to a 1e-9
    relative slack: a grid step [t_next - t_prev] differs from its
    segment's nominal step in the last bits) it is the quadratic
    through the three states, [3 x_n - 3 x_{n-1} + x_{n-2}] on a
    uniform grid; when only [dt'] did not grow it is the linear
    extrapolation [x_n + (x_n - x_{n-1}) dt'/h1]; otherwise it is [x_n]:
    at t=0, on the first step after it (whose history is the
    quasi-static step), and on every step that grows, such as an active
    cycle into a retention pause, where the ratio is ~2e7 and an
    extrapolation would land far outside the update clamp's reach. A
    retry attempt predicts from the same committed state with its
    halved step. The prediction changes only where Newton starts: a
    converged solution moves within the Newton tolerance, and the
    iteration count per accepted step falls by about 40% against
    starting from [x_n].

    Per lane, the iterate sequence does not depend on its batch mates:
    the same assembly, the same prediction from the lane's own history,
    the same update clamping and convergence test, the same dt-halving
    retry ladder on step failure (4 halvings), and the same health
    guards. A lane that fails — Newton divergence after
    retries ({!Transient.Step_failed}), a numerical-health trip, a
    poisoned state — is masked out and reported in its own result slot;
    the surviving lanes are unaffected.

    Lane state lives in per-lane [float array] rows (committed unknowns,
    Newton iterate, the node voltages at the last two accepted points,
    the unknowns before the last two accepted steps) that the solver
    reads and writes in place, so a 16-lane run costs one workspace
    plus [16 x 6] rows, not 16 workspaces. Sample times and probe rows are
    allocated only once the initial solve leaves a live lane.

    Telemetry keeps per-lane meaning: [engine.transient.runs] counts
    lanes, [engine.transient.steps_accepted]/[steps_rejected] count
    lane-solves, [engine.transient.dt_s] observes accepted lane steps,
    and each segment is one [transient.segment] span while telemetry
    is on. *)

(** One ensemble member. [ics] are the lane's initial node voltages by
    node name; unnamed nodes start at 0 V and are made consistent by an
    initial quasi-static solve (a backward-Euler step of essentially
    zero length, which pins capacitor voltages at their ICs while
    solving resistive nodes). [override], when given as
    [(resistor_name, ohms)], makes this lane see that resistance for the
    named resistor; all overriding lanes must name the {e same} resistor
    (one shared topology), and lanes without an override ride at the
    netlist value. *)
type lane = {
  ics : (string * float) list;
  override : (string * float) option;
}

(** [run compiled ?opts ?deadline_at ~segments ~lanes ~probes ()]
    integrates every lane over the shared grid and returns one result
    slot per lane, in lane order: [Ok result] holds the lane's sampled
    [probes] at every accepted time point, [Error e] carries the lane's
    failure ({!Transient.Step_failed}, {!Newton.No_convergence} from the
    initial quasi-static solve, or {!Newton.Numerical_health}) without
    disturbing the other lanes.

    - [segments]: ordered [(t_end, dt)] list; [t_end] strictly increases
      and [dt > 0]. [opts.dt_scale] multiplies every [dt].
    - [deadline_at]: absolute wall-clock cutoff [(at, budget_s)], polled
      before every lane-iteration through {!Newton.check_deadline} (so
      the clock is read once per 16). Past it the whole run raises
      {!Newton.Timeout} at once — no halving retries, no per-lane
      slot: a budget is a per-request contract, which is why deadline
      callers run one lane at a time.

    Raises [Invalid_argument], before it integrates anything, where
    {!check} does. *)
val run :
  Dramstress_circuit.Netlist.compiled ->
  ?opts:Options.t ->
  ?deadline_at:float * float ->
  segments:(float * float) list ->
  lanes:lane array ->
  probes:string list ->
  unit ->
  (Transient.result, exn) result array

(** [check compiled ~segments ~lanes ~probes] checks the arguments of
    [run] (under {!Options.default}) against the deck without
    integrating. Raises [Invalid_argument] for an empty lane array,
    invalid segments, unknown IC/probe nodes, a ground IC, a
    non-positive override resistance, an unknown override resistor, or
    lanes overriding different resistors; [run] also rejects a
    non-positive [opts.dt_scale]. *)
val check :
  Dramstress_circuit.Netlist.compiled ->
  segments:(float * float) list ->
  lanes:lane array ->
  probes:string list ->
  unit

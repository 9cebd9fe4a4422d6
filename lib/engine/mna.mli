(** Modified nodal analysis: system layout and stamping.

    A voltage source from a node to ground fixes that node: its voltage
    is the source's value at the time point, known before any solve.
    Such a node is no unknown, and neither is its source's branch
    current (the first grounded source of a node fixes it; any other
    source keeps its branch row). For a circuit with [f] free nodes
    (neither ground nor fixed) and [m] floating voltage sources, the
    unknown vector is
    {v x = [ v_free_0 .. v_free_(f-1) ; i_vsrc_0 .. i_vsrc_(m-1) ] v}
    with the free nodes in node order. The DRAM column's 15 nodes and 5
    grounded sources give 10 unknowns, not 20.

    One assembly produces the linearized system [G x_new = b] around a
    Newton iterate, with linearized MOSFETs and the variable-step BDF2
    companion of each capacitor (see {!reactive}): a conductance in
    parallel with a history current read from the node voltages at the
    last two accepted time points. BDF2 is the only rule; backward
    Euler is its [omega = 0] case. Rows
    of fixed nodes are dropped, as ground's are, and entries in their
    columns move to [b] times the fixed voltage. The tests check this layout against a
    dense full-MNA simulator that shares none of it ([test/reference]). *)

type t

(** [make compiled] precomputes the layout, the structural pattern,
    the slot of every stamp and the sparse LU's column order
    ({!Dramstress_util.Sparse_lu.col_order}), which every workspace of
    [t] shares. *)
val make : Dramstress_circuit.Netlist.compiled -> t

(** [size sys] is the number of unknowns. *)
val size : t -> int

(** [n_nodes sys] is the node count including ground. *)
val n_nodes : t -> int

(** [n_free_nodes sys] is the number of free node voltages, the first
    unknowns; the branch currents follow them. *)
val n_free_nodes : t -> int

(** [pack sys node_voltages] builds an unknown vector from per-node
    voltages (branch currents zeroed; fixed nodes' entries unread). *)
val pack : t -> float array -> float array

(** A step's length [dt > 0] and its ratio [omega = dt / dt_prev] to
    the previous accepted step's length. All floats, so the record is
    stored flat and setting a field allocates nothing. *)
type step = { mutable dt : float; mutable omega : float }

(** Dynamic (reactive) inputs to one assembly: the {!step}, and the
    per-node voltages at the last two accepted time points, [prev_v]
    (v_n) and [prev2_v] (v_(n-1)). A capacitor C
    stamps the variable-step BDF2 companion: the conductance
    [C (1 + 2 omega) / ((1 + omega) dt)] in parallel with the history
    current [C/dt * ((1+omega) v_n - omega^2/(1+omega) v_(n-1))].
    [omega = 0] is backward Euler ([C/dt], history [C/dt * v_n]), which
    does not read [prev2_v]: the step after a start or after a step
    that more than doubled has no usable second point. The fields are
    mutable so that a transient lane keeps one record for its whole run,
    sets each step's length and ratio, and rotates its two voltage
    rows. *)
type reactive = {
  step : step;
  mutable prev_v : float array;
  mutable prev2_v : float array;
}

(** [resistor_index sys name] is the plan index of the named resistor,
    for {!set_resistor_override} — the hook ensemble sweeps use to vary
    one resistance (the defect) across lanes of a shared topology. *)
val resistor_index : t -> string -> int option

(** [resistor_g sys index] is the base conductance of plan [index]. *)
val resistor_g : t -> int -> float

(** Reusable per-solve buffers for the assembly. The
    system matrix is one flat vector of {!Dramstress_util.Sparse_lu}
    slot values over the structural pattern of [sys] (every position
    any assembly can write, derived from the devices, never from
    numeric values); {!make} resolves the slots of every stamp once per
    topology; after them come the coupling slots, one per (free row,
    fixed column) position. The workspace holds that vector and the
    RHS, the cached static-linear template in the same slots (gmin,
    resistors, voltage-source topology, capacitor conductances for the
    current [dt]), restored by one blit, and the sparse LU handle with
    its substitution scratch, and the counts of its solves ({!flush}).
    One workspace serves any number of
    sequential solves on the same system under one [opts] (the
    template is keyed on [dt] and the resistor override only); it must
    not be shared between domains. *)
type workspace

(** [make_workspace sys] allocates buffers sized for [sys]. *)
val make_workspace : t -> workspace

(** [set_resistor_override ws ~index ~gs ~lane] makes every subsequent
    assembly stamp conductance [gs.(lane)] for resistor plan [index]
    instead of its netlist value: the resistor is dropped from the
    static template (rebuilt on the next assembly) and the conductance
    stamped fresh after each template copy, so the lane conductance is
    exact — no cancellation against the base value. This is how
    ensemble sweeps give each lane its own defect resistance over one
    shared topology; [gs] holds every lane's conductance, so switching
    lanes passes no float. *)
val set_resistor_override :
  workspace -> index:int -> gs:float array -> lane:int -> unit

(** [eval_controls_into sys ws ~t_now ~dt] evaluates every control
    waveform for the step of length [dt] that ends at [t_now] into
    workspace buffers consumed by {!assemble_into_pre}, {!voltages_into}
    and {!fixed_abs_max}: source values, so the fixed node voltages, at
    [t_now], and each switch's state at the step's midpoint
    [t_now - dt/2], so that a switch whose control crosses its threshold
    at a grid point flips exactly there. Split from assembly so each
    time point walks each waveform once, not once per Newton iteration
    or ensemble lane; each PWL waveform's search starts from where the
    last one ended ({!Dramstress_circuit.Waveform.eval_into}). *)
val eval_controls_into : t -> workspace -> t_now:float -> dt:float -> unit

(** [voltages_into sys ws x ~out] expands the unknown vector [x] into
    per-node voltages indexed by node id (length [n_nodes]; entry 0 is
    ground = 0.0), the fixed nodes at their sources' values from the
    last {!eval_controls_into}. *)
val voltages_into : t -> workspace -> float array -> out:float array -> unit

(** [(fixed_abs_max ws).(0)] is the largest magnitude of a fixed node
    voltage at the last {!eval_controls_into} (0.0 without fixed
    nodes): the part of Newton's [max |v|] that is not in the unknowns.
    A one-element array rather than a float, so that reading it from
    another module boxes nothing. *)
val fixed_abs_max : workspace -> float array

(** [newton_acc ws] is a three-float buffer owned by the workspace, where
    [Newton.iterate] collects the results of its update pass without
    boxing them. *)
val newton_acc : workspace -> float array

(** [assemble_into_pre sys ws ~opts ~x ~reactive] stamps the system from
    the control values left by the last {!eval_controls_into}: template
    blit (rebuilt only when the companion factor or the override
    changed),
    then dynamic stamps — switch states, source values, capacitor
    history, MOSFET linearization around [x] (device constants resolved
    once per temperature, see {!Dramstress_circuit.Mosfet.prepare}) —
    and last one pass moving each coupling slot times its fixed voltage
    to the RHS. Allocates nothing. *)
val assemble_into_pre :
  t ->
  workspace ->
  opts:Options.t ->
  x:float array ->
  reactive:reactive ->
  unit

(** [solve_in_place sys ws] factors the assembled matrix and
    overwrites the assembled RHS with the solution ({!solution}) through
    the sparsity-aware factorization ({!Dramstress_util.Sparse_lu}),
    reusing one symbolic analysis per topology, held in the workspace.
    Raises [Dramstress_util.Linalg.Singular] on a rank-deficient (or
    non-finite) system. *)
val solve_in_place : t -> workspace -> unit

(** [tally ws] is the tally that the solvers using [ws] count in per
    iteration and per step ([Newton], [Ensemble]). *)
val tally : workspace -> Dramstress_util.Telemetry.Tally.t

(** [flush ws] adds everything counted on [ws] since the last flush to
    the telemetry registry: the workspace's own template rebuilds and LU
    factors and solves (plain ints, bumped without a call), its sparse
    LU handle's activity ({!Dramstress_util.Sparse_lu.flush}) and its
    {!tally}. [Ensemble.run] flushes once per run, also when the run
    raises. *)
val flush : workspace -> unit

(** [solution ws] is the workspace RHS buffer, holding the solution
    after {!solve_in_place}. The array is reused by the next
    {!assemble_into_pre}; copy anything that must survive. *)
val solution : workspace -> float array

(** [lu_schedule ws] reads the sizes of the refactor schedule the
    workspace's factorization compiled ({!Dramstress_util.Sparse_lu.schedule}),
    [None] before its first {!solve_in_place}. *)
val lu_schedule : workspace -> Dramstress_util.Sparse_lu.schedule option

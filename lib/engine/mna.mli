(** Modified nodal analysis: system layout and stamping.

    Unknown vector layout for a circuit with [n] nodes (ground excluded)
    and [m] voltage sources:
    {v x = [ v_1 .. v_(n-1) ; i_vsrc_0 .. i_vsrc_(m-1) ] v}

    One assembly produces the linearized system [G x_new = b] around a
    Newton iterate, with companion models for capacitors (BE or
    trapezoidal) and linearized MOSFETs. *)

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

(** [node_voltage sys x node] reads a node voltage from an unknown vector
    (0.0 for ground). *)
val node_voltage : t -> float array -> Dramstress_circuit.Device.node -> float

(** [voltages sys x] expands the unknown vector to a per-node voltage
    array indexed by node id (entry 0 is ground = 0.0). *)
val voltages : t -> float array -> float array

(** [voltages_into sys x ~out] is {!voltages} written into [out]
    (length [n_nodes]). *)
val voltages_into : t -> float array -> out:float array -> unit

(** [pack sys node_voltages] builds an unknown vector from per-node
    voltages (branch currents zeroed). *)
val pack : t -> float array -> float array

(** [branch_current sys x name] reads a voltage source's branch current
    from an unknown vector (positive out of the + terminal through the
    external circuit). Raises [Not_found] for unknown sources. *)
val branch_current : t -> float array -> string -> float

(** Dynamic (reactive) inputs to one assembly. [prev_v] is the per-node
    voltage array at the previous accepted time point; [prev_cap_current]
    stores per-capacitor branch current for the trapezoidal rule (indexed
    by capacitor order of appearance); [dt <= 0.0] means "no reactive
    stamps" (pure DC). [dt] is mutable so that a transient lane keeps one
    record for its whole run and only sets each step's length. *)
type reactive = {
  mutable dt : float;
  prev_v : float array;
  prev_cap_current : float array;
}

(** [dc_reactive sys] is a [reactive] that disables capacitor stamps. *)
val dc_reactive : t -> reactive

(** [n_capacitors sys] — size of [prev_cap_current]. *)
val n_capacitors : t -> int

(** [resistor_index sys name] is the plan index of the named resistor,
    for {!set_resistor_override} — the hook ensemble sweeps use to vary
    one resistance (the defect) across lanes of a shared topology. *)
val resistor_index : t -> string -> int option

(** [resistor_g sys index] is the base conductance of plan [index]. *)
val resistor_g : t -> int -> float

(** [assemble ?override sys ~opts ~t ~x ~reactive] stamps the full
    linearized system at time [t] around iterate [x] and returns freshly
    allocated [(g, b)]. [override = (index, g)] stamps conductance [g]
    for resistor plan [index] (see {!set_resistor_override}). This is
    the reference from-scratch path; the workspace API below produces
    identical systems without allocating. *)
val assemble :
  ?override:int * float ->
  t ->
  opts:Options.t ->
  t_now:float ->
  x:float array ->
  reactive:reactive ->
  Dramstress_util.Linalg.matrix * float array

(** Reusable per-solve buffers for the incremental assembly path. The
    system matrix is one flat vector of {!Dramstress_util.Sparse_lu}
    slot values over the structural pattern of [sys] (every position
    any assembly can write, derived from the devices, never from
    numeric values); {!make} resolves the slots of every stamp once per
    topology. The workspace holds that vector and the RHS, the cached
    static-linear template in the same slots (gmin, resistors,
    voltage-source topology, capacitor conductances for the current
    [(dt, gmin, integrator)]), restored by one blit, and the sparse LU
    handle with its substitution scratch. One workspace serves any
    number of sequential solves on the same system; it must not be
    shared between domains. *)
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

(** [resistor_override ws] is the [(index, g)] set by
    {!set_resistor_override}, if any — what the reference {!assemble}
    needs to reproduce a lane. *)
val resistor_override : workspace -> (int * float) option

(** [eval_controls_into sys ws ~t_now] evaluates every control waveform
    (switch controls, source values) at [t_now] into workspace buffers
    consumed by {!assemble_into_pre}. Split from assembly so each time
    point walks each waveform once, not once per Newton iteration or
    ensemble lane. *)
val eval_controls_into : t -> workspace -> t_now:float -> unit

(** [assemble_into_pre sys ws ~opts ~x ~reactive] stamps the system from
    the control values left by the last {!eval_controls_into}: template
    blit (rebuilt only when [(dt, gmin, integrator, override)] changed),
    then dynamic stamps — switch states, source values, capacitor
    history, MOSFET linearization around [x] (device constants resolved
    once per temperature, see {!Dramstress_circuit.Mosfet.prepare}).
    Produces systems identical to {!assemble} without heap
    allocation. *)
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

(** [solution ws] is the workspace RHS buffer, holding the solution
    after {!solve_in_place}. The array is reused by the next
    {!assemble_into_pre}; copy anything that must survive. *)
val solution : workspace -> float array

(** [lu_schedule ws] reads the sizes of the refactor schedule the
    workspace's factorization compiled ({!Dramstress_util.Sparse_lu.schedule}),
    [None] before its first {!solve_in_place}. *)
val lu_schedule : workspace -> Dramstress_util.Sparse_lu.schedule option

(** [cap_currents_into sys ~opts ~x ~reactive ~out] writes each
    capacitor's branch current at the just-solved point (needed to
    advance the trapezoidal rule) into [out] (length >= n_capacitors).
    [out] may alias [reactive.prev_cap_current]: each capacitor reads only
    its own slot before overwriting it. With [reactive.dt <= 0] the slots
    are zeroed. *)
val cap_currents_into :
  t ->
  opts:Options.t ->
  x:float array ->
  reactive:reactive ->
  out:float array ->
  unit

(** [record_factor_solve ()] bumps the [engine.mna.lu_factors] /
    [engine.mna.lu_solves] telemetry counters — called by solver paths
    that factor outside {!solve_in_place} (the naive reference path). *)
val record_factor_solve : unit -> unit

(** Result planes — the paper's Section 3 analysis objects (Figures 2
    and 6).

    For a defect kind, a plane sweeps the defect resistance and records
    the storage voltage reached after each of a number of identical
    operations, together with the sense-amplifier threshold curve
    [V_sa(R)] and the defect-free mid-point voltage [V_mp]. The border
    resistance falls out geometrically as the intersection of the second
    write-victim curve with [V_sa]. *)

type point = { r : float; vc : float }

type curve = {
  label : string;     (** e.g. ["(2) w0"] *)
  points : point list;
}

(** Sense threshold at one resistance: the storage voltage above which
    the read returns (physical) 1, or a saturated verdict. *)
type vsa_point = { r_sa : float; vsa : vsa_value }

and vsa_value =
  | Vsa of float
  | Reads_all_1   (** every storage voltage reads 1 at this resistance *)
  | Reads_all_0

type t = {
  op : Dramstress_dram.Ops.op;    (** the repeated operation *)
  curves : curve list;            (** one per successive operation *)
  vsa_curve : vsa_point list;
  vmp : float;                    (** defect-free read threshold *)
  rops : float list;
      (** the resistances that simulated successfully, ascending; curves
          and [vsa_curve] are aligned with this list *)
  failures : float Dramstress_util.Outcome.failure list;
      (** sweep points whose simulation failed even after the retry
          policy ({!Dramstress_dram.Sim_config.retry_policy}) ran dry;
          the plane is built from the surviving points *)
  stress : Dramstress_dram.Stress.t;
}

(** [vmp ?config ~stress ()] is the read threshold of the defect-free
    column — the voltage border between a stored 0 and 1.

    Everywhere in this module, [config] (default
    {!Dramstress_dram.Sim_config.default}) parameterises every
    simulation. *)
val vmp :
  ?config:Dramstress_dram.Sim_config.t ->
  stress:Dramstress_dram.Stress.t ->
  unit -> float

(** [vsa ?config ~stress ~defect ()] is the sense threshold
    for the given defect instance (guarded bisection on the initial
    storage voltage to 5 mV; {!vmp} is the same bisection on the
    defect-free column). *)
val vsa :
  ?config:Dramstress_dram.Sim_config.t ->
  stress:Dramstress_dram.Stress.t ->
  defect:Dramstress_defect.Defect.t ->
  unit ->
  vsa_value

(** [write_plane ?config ?store ?n_ops ?rops ~stress ~kind ~placement
    ~op ()] generates the plane for a repeated write ([W0] planes start from
    a floating full-1 cell, [W1] planes from a full-0 cell, following
    the paper). [n_ops] defaults to 4. The resistance axis is [rops]
    (default 12 points over [1 kOhm, 1 MOhm]).
    Raises [Invalid_argument] if [op] is a read or pause.

    Each resistance is one lane of every round: one round of writes,
    then a lockstep [V_sa] bisection, each round one
    {!Dramstress_dram.Ops.run_batch}, which cuts the lanes into
    ensembles and fans them out over [config.jobs] domains
    ({!Dramstress_dram.Sim_config.resolve_jobs}; [Some 1] forces a
    sequential sweep). A point's values do not depend on that
    batching.

    A point that raises — even after {!Dramstress_dram.Ops.run}'s retry
    ladder — lands in [t.failures] instead of aborting the sweep.
    [store] records each finished point ([%h] floats, so resumed
    planes are byte-identical) in a {!Dramstress_util.Store} and
    replays it on resume. *)
val write_plane :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?n_ops:int ->
  ?rops:float list ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  op:Dramstress_dram.Ops.op ->
  unit ->
  t

(** [read_plane ?config ?store ?n_ops ?rops ~stress ~kind ~placement ()]
    generates the repeated-read plane: two trajectories per resistance,
    seeded 0.2 V below and above [V_sa], the paper's choice. [n_ops]
    defaults to 3. [config], [store], [rops] and failure handling as in
    {!write_plane}. *)
val read_plane :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?n_ops:int ->
  ?rops:float list ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  t

(** [br_geometric w0_plane] intersects the plane's second curve with its
    [V_sa] curve — the paper's graphical BR definition. [None] when they
    do not cross in the sampled range. *)
val br_geometric : t -> float option

(** [curve_interp c] is the curve as an interpolation over resistance. *)
val curve_interp : curve -> Dramstress_util.Interp.t

(** [vsa_interp plane] is the finite part of the V_sa curve, substituting
    0 V for [Reads_all_1] points (the threshold has collapsed to ground)
    and the supply for [Reads_all_0]. *)
val vsa_interp : t -> Dramstress_util.Interp.t

(** Per-stress direction analysis — Section 4 of the paper.

    For each stress axis, two cheap probes mirror the paper's Figures
    3–5: the effect on the victim write (residual storage voltage after
    one victim write at the analysis resistance) and on the read (shift
    of the sense threshold [V_sa]). When the two disagree — the paper's
    V_dd case — the verdict falls back to comparing border resistances at
    the candidate extremes. *)

type direction =
  | Increase   (** driving the axis up stresses the test *)
  | Decrease
  | Neutral    (** no measurable effect *)

val pp_direction : Format.formatter -> direction -> unit

(** One probed stress value and its measurements. *)
type sample = {
  value : float;
  write_residual : float;
    (** |physical target - V_c| after one victim write: larger means the
        write was disturbed more, i.e. the value is more stressful for
        the write *)
  vsa_shift : float;
    (** V_sa at the analysis resistance, oriented so that larger means
        easier fault detection on the read *)
}

type probe = {
  axis : Dramstress_dram.Stress.axis;
  samples : sample list;
  write_direction : direction;
  read_direction : direction;
  verdict : direction;
  br_at_extremes : (float * Border.result) list;
    (** filled when the verdict needed a BR comparison *)
  rationale : string;
}

(** The defect resistance the write and read probes run at: 200 kOhm,
    the paper's choice (Section 4). *)
val analysis_r : float

(** [probe_axis ?config ?store ?window ~stress ~kind ~placement
    ~detection axis values] measures the axis at the given candidate
    [values] (ordered; at least two) at {!analysis_r}. A metric that
    moves by at most 10 mV across the values calls no direction.
    Every probe simulation and fallback BR search runs under [config]
    (default {!Dramstress_dram.Sim_config.default}). [store]
    memoizes each sample's two measurements and the BR searches a
    conflicting verdict falls back to;
    [window] is the {!Border.Window} those searches run under (default
    {!Border.Window.default}). *)
val probe_axis :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?window:Border.Window.t ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  detection:Detection.t ->
  Dramstress_dram.Stress.axis ->
  float list ->
  probe

(** [default_values axis ~stress] — the registry's candidate values per
    axis ({!Dramstress_stressaxis.Stressaxis.probe_values}). For the
    paper's four: t_cyc 55/60 ns, T −33/+27/+87 C, V_dd 2.1/2.4/2.7 V,
    duty 0.35/0.5/0.65 (scaled around the given nominal). *)
val default_values :
  Dramstress_dram.Stress.axis -> stress:Dramstress_dram.Stress.t -> float list

(** [apply_verdict probe ~stress] moves the axis one registry notch
    ({!Dramstress_stressaxis.Stressaxis.nudge}) in the stressful
    direction (for the paper's four: t_cyc −5 ns, T ±60 C, V_dd ∓0.3 V,
    duty ∓0.15), clamped to physical ranges; identity for [Neutral]. *)
val apply_verdict :
  probe -> stress:Dramstress_dram.Stress.t -> Dramstress_dram.Stress.t

(** [trace_vc ?config ~stress ~defect ~vc_init op] is the V_c(t) waveform
    over a single operation — the raw material of Figures 3–5. *)
val trace_vc :
  ?config:Dramstress_dram.Sim_config.t ->
  stress:Dramstress_dram.Stress.t ->
  defect:Dramstress_defect.Defect.t ->
  vc_init:float ->
  Dramstress_dram.Ops.op ->
  (float * float) list

val pp_probe : Format.formatter -> probe -> unit

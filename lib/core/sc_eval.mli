(** Stress-combination evaluation — Sections 4.4 and 5 of the paper.

    Runs the full optimization flow for one defect: probe each stress
    axis, compose the stressful SC, re-derive the detection condition
    under the new SC (more priming writes may be needed, retention
    pauses help against shorts), and report nominal vs stressed border
    resistance. *)

type t = {
  kind : Dramstress_defect.Defect.kind;
  placement : Dramstress_defect.Defect.placement;
  nominal : Dramstress_dram.Stress.t;
  nominal_detection : Detection.t;
  nominal_br : Border.result;
  probes : Stressor.probe list;
  stressed : Dramstress_dram.Stress.t;
  stressed_detection : Detection.t;
  stressed_br : Border.result;
  improvement : float option;
    (** covered-range growth factor, per the defect polarity *)
}

(** [candidate_detections ?allow_pause ~placement kind] — the detection
    conditions the synthesis chooses among: the paper's standard shape
    with 1–4 priming writes, plus — when [allow_pause] (default true) —
    a retention element with a 1 ms pause for shorts and bridges.
    Retention pauses count as a stress, so the nominal evaluation
    excludes them. *)
val candidate_detections :
  ?allow_pause:bool ->
  placement:Dramstress_defect.Defect.placement ->
  Dramstress_defect.Defect.kind -> Detection.t list

(** [best_detection ?config ?window ~stress ~kind ~placement ()] picks
    the candidate with the most covering BR at the given SC, returning
    the winning condition with its BR. [config] and [window] pass
    through to every underlying {!Border.search} (campaign manifests
    narrow the window to bound cost), as does [hint] (warm-start border
    estimates from adjacent campaign points). *)
val best_detection :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?window:Border.Window.t ->
  ?hint:float list ->
  ?allow_pause:bool ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  Detection.t * Border.result

(** [evaluate ?config ?store ?window ?axes ~nominal ~kind ~placement ()]
    runs the complete flow, probing each axis at
    {!Stressor.analysis_r}. Every border search and every stress probe
    runs under [config] (default {!Dramstress_dram.Sim_config.default}).
    [axes] defaults to cycle time, temperature and supply voltage (the
    paper's three STs). [store] memoizes every border search of
    the flow, so interrupted campaigns (e.g. Table 1) resume without
    repeating finished searches. *)
val evaluate :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?window:Border.Window.t ->
  ?axes:Dramstress_dram.Stress.axis list ->
  nominal:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  t

val pp : Format.formatter -> t -> unit

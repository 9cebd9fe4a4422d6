(** Exhaustive stress optimization — the labour-intensive baseline the
    paper's Section 4 opens with: "performing a full fault analysis
    (generating the three result planes) for each ST value of interest".

    Here the full factorial grid of stress combinations is searched and
    the most covering BR reported, together with the number of
    electrical simulations spent — the cost the paper's two-point probe
    method avoids. *)

type t = {
  best : Dramstress_dram.Stress.t;
  best_br : Border.result;
  grid_size : int;          (** number of SCs evaluated *)
  simulations : int;        (** electrical runs consumed *)
  ranking : (Dramstress_dram.Stress.t * Border.result) list;
      (** every SC with its BR, most covering first *)
  failures : Dramstress_dram.Stress.t Dramstress_util.Outcome.failure list;
      (** grid points whose border search failed outright; the ranking is
          built from the surviving points *)
}

(** [optimize ?config ?tcyc_values ?temp_values ?vdd_values ~nominal
    ~kind ~placement detection] evaluates the BR of [detection] at every
    combination. Default grids: t_cyc {55, 60, 65 ns} x T {-33, 27,
    87 C} x V_dd {2.1, 2.4, 2.7 V}. Each border search runs under
    {!Border.Window.default}.

    [config] (default {!Dramstress_dram.Sim_config.default})
    parameterises every border search; its [jobs] caps the domains
    used to evaluate grid points in parallel
    ({!Dramstress_dram.Sim_config.resolve_jobs}; [Some 1] is
    sequential). Each grid point observes the shared
    [core.sweep.point_ms] telemetry histogram and emits an
    [exhaustive.point] span.

    A grid point whose border search fails lands in [t.failures];
    [Invalid_argument] is raised only when the grid is empty or {e no}
    point survived. *)
val optimize :
  ?config:Dramstress_dram.Sim_config.t ->
  ?tcyc_values:float list ->
  ?temp_values:float list ->
  ?vdd_values:float list ->
  nominal:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  Detection.t ->
  t

(** Cost/result comparison of the two methods on the same defect. *)
type comparison = {
  exhaustive : t;
  probe_sc : Dramstress_dram.Stress.t;
  probe_br : Border.result;
  probe_simulations : int;
  agreement : bool;
      (** the probe method found an SC within one grid notch of the
          exhaustive optimum on every axis *)
}

(** [compare_methods ?config ~nominal ~kind ~placement ()] runs both
    the exhaustive baseline and the paper's probe method ({!Sc_eval})
    under one [config] and reports the simulation budgets. *)
val compare_methods :
  ?config:Dramstress_dram.Sim_config.t ->
  nominal:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  comparison

val pp : Format.formatter -> t -> unit
val pp_comparison : Format.formatter -> comparison -> unit

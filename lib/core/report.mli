(** Text rendering of the paper's figures. *)

(** [figure2 ?config ?rops ~stress ~kind ~placement ()] renders
    the three result planes (w0, w1, r) with the V_sa curve and V_mp
    marker — Figure 2 at the nominal SC, Figure 6 at a stressed SC.
    Also reports the geometric BR when the curves cross. [config]
    bundles solver options, retry policy and per-point deadline as in
    {!Plane.write_plane}. *)
val figure2 :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?rops:float list ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  string

(** Like {!figure2} but also returns the per-point sweep failures of
    all three planes (in plane order w0, w1, r), so front ends can
    turn failed points into an exit status. Failed points are listed
    at the end of the rendering, never interpolated over. *)
val figure2_with_failures :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?rops:float list ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  string * float Dramstress_util.Outcome.failure list

(** [figure_st_panels ?config ~stress ~axis ~values ~kind ~placement ()]
    renders the two time-domain panels of Figures 3–5 at
    {!Stressor.analysis_r}: V_c(t) during a victim write and during a
    read of a marginal cell, one series per stress value, every run
    under [config]. *)
val figure_st_panels :
  ?config:Dramstress_dram.Sim_config.t ->
  stress:Dramstress_dram.Stress.t ->
  axis:Dramstress_dram.Stress.axis ->
  values:float list ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  unit ->
  string

(** [plane_csv plane] dumps a plane's curves for external plotting. *)
val plane_csv : Plane.t -> string

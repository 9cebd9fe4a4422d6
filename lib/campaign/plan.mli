(** Campaign planning: manifest → concrete simulation points, each with
    a stable content address into a {!Dramstress_util.Store}.

    A point's address is the one store-key format
    ({!Dramstress_dram.Sim_config.key}, layer [campaign.point]) over
    the manifest's physics, the stress, the defect and placement, the
    canonical detection text and the border-search window
    ({!Dramstress_core.Border.Window.key}). The stress {e label}, the
    campaign name and scheduling knobs (jobs, lanes, deadline) stay
    out, so campaigns that agree on the physics share results. *)

type point = {
  defect : Dramstress_defect.Defect.entry;
  placement : Dramstress_defect.Defect.placement;
  stress_label : string;
  stress : Dramstress_dram.Stress.t;
  detection : Manifest.detection_spec;
  key : string;
      (** the point's content address under its manifest's physics —
          the success-record key; hex floats throughout, stable across
          processes and domains *)
}
(** One (defect placement x stress x detection) cell of the campaign. *)

type result = {
  detection : Dramstress_core.Detection.t;
      (** the concrete operation sequence that was scored — for [Best]
          points, the synthesized winner *)
  br : Dramstress_core.Border.result;
}
(** What a finished point stores: the border result together with the
    operation sequence that produced it. *)

(** [make m ~defect ~placement ~stress_label ~stress detection] is the
    point with its {!field-key} under [m]'s physics and window. Apply
    it to [m] once and reuse the result: the physics prefix is printed
    at that application, not per point. *)
val make :
  Manifest.t ->
  defect:Dramstress_defect.Defect.entry ->
  placement:Dramstress_defect.Defect.placement ->
  stress_label:string ->
  stress:Dramstress_dram.Stress.t ->
  Manifest.detection_spec ->
  point

(** [points m] expands the manifest into its full cross product, in
    manifest declaration order (defects outermost, detections
    innermost). *)
val points : Manifest.t -> point list

(** [fail_key p] is the failure-record key for [p] — a separate
    namespace so a recorded failure never shadows a later success and is
    retried on the next run. *)
val fail_key : point -> string

(** [encode_result] / [decode_result] — store payload codec for finished
    points ([%h] floats; round-trips exactly). [decode_result] is total. *)
val encode_result : result -> string

val decode_result : string -> result option

val pp_point : Format.formatter -> point -> unit

(** Campaign comparison — the Table-1 story as a first-class report.

    A diff reads two campaign {e stores} (no simulation happens here)
    and reports, defect by defect, how the border resistance moved
    between two sides. The two standard uses:

    - {e two stress settings} of one campaign ([Stress_pair]): the
      paper's Table 1 — nominal vs stressed BR and the improvement
      factor per defect;
    - {e two campaigns} ([Matched_stresses]): same study re-run (new
      engine, new store, a colleague's machine) — every stress label
      the sides share is compared point-for-point. A completed campaign
      diffed against itself is empty: [shifted = 0], [missing = 0]. *)

type side = {
  store : Dramstress_util.Store.t;
  manifest : Manifest.t;
  label : string;  (** display name, e.g. the campaign or file name *)
}

type pairing =
  | Matched_stresses
      (** compare equal stress labels; labels missing on either side are
          skipped (and listed in {!t.unpaired}) *)
  | Stress_pair of { a : string; b : string }
      (** compare side A at label [a] against side B at label [b] —
          nominal-vs-stressed Table-1 mode *)

type row = {
  defect : Dramstress_defect.Defect.entry;
  placement : Dramstress_defect.Defect.placement;
  detection : Manifest.detection_spec;
  stress_a : string;
  stress_b : string;
  a : Plan.result option;  (** [None]: missing or failed on side A *)
  b : Plan.result option;
  improvement : float option;
      (** covered-range growth A→B per the defect's polarity
          ({!Dramstress_core.Border.improvement}); [None] unless both
          sides are present and comparable *)
  shifted : bool;
      (** both sides present and the border results differ (beyond the
          [rel_tol] of {!v}) *)
}

type t = {
  a_label : string;
  b_label : string;
  rows : row list;
  shifted : int;
  missing : int;  (** rows with at least one absent side *)
  unpaired : string list;
      (** stress labels skipped by [Matched_stresses] *)
}

(** [v ?pairing ?rel_tol ~a ~b ()] builds the report. With [rel_tol]
    (default 0: any differing bit shifts a row), a row shifts unless
    both borders have the same bracket shape (constructor, band count,
    {!Dramstress_core.Border.Unknown} edges), every edge lies within
    [rel_tol] in log-resistance and the synthesized detections are
    equal. Rows follow side A's
    manifest order (defects outermost). The plan/addressing comes from
    each side's own manifest, so the sides may disagree on scheduling
    (jobs, deadline) and still compare — but not on physics, which is
    part of the address. Raises [Invalid_argument] if a [Stress_pair]
    label is not declared in the corresponding manifest. *)
val v : ?pairing:pairing -> ?rel_tol:float -> a:side -> b:side -> unit -> t

(** [agree ~rel_tol a b] is [true] when a row with sides [a] and [b]
    does not shift in {!v} at [rel_tol]: equal detections, and equal
    borders at 0 or borders within [rel_tol] otherwise. *)
val agree : rel_tol:float -> Plan.result -> Plan.result -> bool

(** [render d] is the Table-1-style text report; border cells use
    {!Dramstress_core.Table1.br_string}, so a campaign diff and the
    canonical table render the same values identically. *)
val render : t -> string

val to_csv : t -> string

(** [table1 ~rel_tol ~a_label ~b_label a b] compares two Table-1 runs
    row by row (defect and placement) and returns the text report with
    the number of rows that do not agree: rows missing or failed on
    either side, and rows whose stressed SC, probe directions,
    synthesized detections or bracket shapes differ, or whose border
    edges lie more than [rel_tol] apart in log-resistance
    ({!Dramstress_core.Table1.compare}). *)
val table1 :
  rel_tol:float ->
  a_label:string ->
  b_label:string ->
  Dramstress_core.Table1.t ->
  Dramstress_core.Table1.t ->
  string * int

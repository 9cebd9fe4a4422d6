(** Table 1 of the paper: ST optimization results over the whole defect
    catalog, each on the true and the complementary bit line. *)

type row = {
  defect_id : string;
  placement : Dramstress_defect.Defect.placement;
  evaluation : Sc_eval.t;
}

type t = {
  rows : row list;
  failures :
    (string * Dramstress_defect.Defect.placement)
    Dramstress_util.Outcome.failure list;
      (** (defect id, placement) rows whose evaluation failed even after
          the retry policy; the table is built from the surviving rows *)
  nominal : Dramstress_dram.Stress.t;
}

(** [generate ?config ?store ?entries ?placements ?axes ()] runs the
    full optimization from the paper's nominal SC
    ({!Dramstress_dram.Stress.nominal}) for every catalog entry and
    placement, each border search under {!Border.Window.default}. The
    three opens
    are electrically equivalent; pass [entries] to restrict (e.g. one
    open representative) when compute time matters. Every simulation of
    every row — border searches and stress probes alike — runs under
    [config] (default {!Dramstress_dram.Sim_config.default}); rows are
    evaluated in parallel over at most [config.jobs] domains
    ({!Dramstress_dram.Sim_config.resolve_jobs}; [Some 1] is
    sequential). Each row observes the shared
    [core.sweep.point_ms] telemetry histogram and emits a [table1.row]
    span.

    [store] threads a {!Dramstress_util.Store} through
    every border search of every row: an interrupted table regeneration
    resumes from the finished searches instead of starting over.

    [axes] selects which stress axes each row probes and optimizes
    (default {!Sc_eval.evaluate}'s paper trio: cycle time, temperature,
    supply voltage). Any {!Dramstress_dram.Stress.axis} registered in
    {!Dramstress_stressaxis.Stressaxis} works; the rendered/CSV
    direction columns follow the probed axes. *)
val generate :
  ?config:Dramstress_dram.Sim_config.t ->
  ?store:Dramstress_util.Store.t ->
  ?entries:Dramstress_defect.Defect.entry list ->
  ?placements:Dramstress_defect.Defect.placement list ->
  ?axes:Dramstress_dram.Stress.axis list ->
  unit ->
  t

(** [br_string result] is the compact border-resistance cell rendering
    used by {!render} ("200k", "1M..10G", "all R", ...) — exposed so
    other Table-1-style reports (campaign BR-shift diffs) render borders
    identically to the canonical table. *)
val br_string : Border.result -> string

(** [render table] formats the paper-style table as text. Direction
    columns are derived from the axes actually probed (registry names),
    so extended-axis tables render without a layout change here. *)
val render : t -> string

(** [to_csv table] machine-readable form. Direction column headers are
    ["<axis>_dir"] per probed axis — ["tcyc_dir"; "temp_dir";
    "vdd_dir"] for the default trio, unchanged from earlier versions. *)
val to_csv : t -> string

(** One row of {!compare}: a row of the first table against the row of
    the second with the same defect and placement. *)
type row_diff = {
  a_row : row;
  b_row : row;  (** the same defect and placement *)
  same_sc : bool;
      (** the stressed SC and every probe direction are equal *)
  same_detection : bool;
      (** both synthesized detection conditions are equal *)
  nominal_d : float list option;
      (** the nominal border's {!Border.edge_distances}; [None] when
          the bracket shapes differ *)
  stressed_d : float list option;
      (** the same for the stressed border; [None] also when [same_sc]
          does not hold, since borders under different SCs do not
          compare *)
}

(** [compare a b] pairs every row of [a] with [b]'s row of the same
    defect and placement (rows missing from [b] are left out). *)
val compare : t -> t -> row_diff list

(** [worst ds] is the largest magnitude of the distances, [None] for
    [None]. *)
val worst : float list option -> float option

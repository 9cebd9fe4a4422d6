(** Border resistance (BR) search — the paper's central quantity.

    BR is the defect resistance at which the memory first shows
    detectable faulty behaviour under a given detection condition and
    stress combination. For opens faults appear {e above} BR; for shorts
    {e below} it. Some defects (cell-to-cell bridges) are detectable only
    on an interior {e band} of resistances: a hard bridge welds victim
    and aggressor into one node (the victim write rewrites both, hiding
    the fault), a weak one cannot couple within the test time.

    The search is fault tolerant: a grid sample whose transient
    simulation fails (even after {!Dramstress_dram.Ops.run}'s retry
    ladder) is skipped rather than aborting the search, and an edge whose
    bisection fails is reported as {!Unknown} — bounded by the two known
    samples that bracket it — instead of being silently guessed. *)

(** A detected-band boundary: either bisected to tolerance, or known only
    to lie between two grid samples because the refinement could not be
    simulated. *)
type edge =
  | Exact of float  (** bisected boundary resistance, ohm *)
  | Unknown of { lo : float; hi : float }
      (** boundary somewhere in [[lo, hi]]; refinement failed *)

type band = { b_lo : edge; b_hi : edge }
(** One contiguous detected-resistance interval. *)

type result =
  | Br of float          (** single boundary resistance, ohm *)
  | Faulty_band of { lo : float; hi : float }
      (** detected only inside [[lo, hi]], both edges bisected *)
  | Bands of band list
      (** two or more detected intervals, or a single interval with an
          {!Unknown} edge — e.g. a detected/undetected/detected pattern
          that older revisions collapsed into one bogus boundary *)
  | Always_faulty        (** detected across the whole searched range *)
  | Never_faulty         (** not detected anywhere in the range *)
  | Unsampled            (** every grid sample failed to simulate *)

val pp_edge : Format.formatter -> edge -> unit
val pp_result : Format.formatter -> result -> unit

(** [edge_mid e] is a point estimate of the boundary: the value of an
    {!Exact} edge, the geometric midpoint of an {!Unknown} bracket (the
    resistance axis is logarithmic). *)
val edge_mid : edge -> float

(** [of_samples ~refine ~r_min ~r_max samples] is the pure
    classification core behind {!search}: [samples] is the scanned grid
    in ascending resistance order, [None] marking points that could not
    be simulated; [refine r0 r1] locates the detection edge between two
    known samples with opposite outcomes. Failed samples are skipped —
    transitions are taken between consecutive {e known} samples. Exposed
    for tests. *)
val of_samples :
  refine:(float -> float -> edge) ->
  r_min:float ->
  r_max:float ->
  (float * bool option) list ->
  result

(** Search windows — the first-class description of {e where} and {e how
    finely} {!search} looks for the border.

    A [Window.t] is one value that can be stored in manifests,
    fingerprinted into campaign store keys, and threaded unchanged
    through {!Plane}, {!Exhaustive}, {!Table1},
    {!Sc_eval.best_detection} and the CLI. *)
module Window : sig
  (** How the window is scanned.

      [Grid] — the golden oracle: simulate every grid point, then bisect
      each detection flip. [Adaptive] — probe a 5-point coarse skeleton
      of the {e same} grid (one batched ensemble solve), bisect each
      detected flip down to a single grid interval {e by index}, then
      run the identical edge refinement on the identical bracketing
      pair. On curves with at most one detection transition per skeleton
      interval the two strategies provably return bit-identical results;
      bands narrower than the skeleton spacing can be missed by
      [Adaptive], which is why [Grid] remains the oracle and the
      default. A solver failure during an adaptive probe escalates the
      scan to the full grid so failure-path classification matches the
      oracle exactly. *)
  type strategy = Grid | Adaptive

  type t = private {
    r_min : float;        (** low end of the searched range, ohm *)
    r_max : float;        (** high end of the searched range, ohm *)
    grid_points : int;    (** log-grid resolution, >= 2 *)
    rel_tol : float;      (** relative tolerance of edge bisection *)
    strategy : strategy;
  }

  (** Number of skeleton probes the adaptive coarse pass takes. *)
  val coarse_points : int

  (** [v ()] builds a window; defaults reproduce the historical
      behaviour: 13 points over [1 kOhm, 100 GOhm], 1% tolerance,
      [Grid]. Raises [Invalid_argument] unless
      [0 < r_min < r_max], [grid_points >= 2] and [rel_tol > 0]. *)
  val v :
    ?r_min:float -> ?r_max:float -> ?grid_points:int -> ?rel_tol:float ->
    ?strategy:strategy -> unit -> t

  val default : t

  val with_strategy : strategy -> t -> t

  val strategy_name : strategy -> string
  val strategy_of_name : string -> strategy option

  (** [provably_grid w] — true when a search under [w] provably
      simulates and classifies exactly as the grid oracle would: either
      [w.strategy = Grid], or the grid is no finer than the adaptive
      skeleton (so every index is probed anyway). Campaign store
      records are shared between two windows iff their {!fingerprint}s
      agree, and the fingerprint folds this predicate in — so [Grid]
      and [Adaptive] share records only when identical results are
      guaranteed, not merely expected. *)
  val provably_grid : t -> bool

  (** Canonical fingerprint for store/checkpoint keys: hex-float exact.
      Windows with [provably_grid] true fingerprint identically to the
      plain grid window on the same bounds. *)
  val fingerprint : t -> string

  val equal : t -> t -> bool
  val pp : Format.formatter -> t -> unit
end

(** [adaptive_scan ~n ~coarse ~seeds probe_many] — the pure index-space
    driver behind [Window.Adaptive], exposed for property tests. Probes
    a [coarse]-point skeleton of indices [0..n-1] plus any [seeds]
    (out-of-range or duplicate seeds are ignored; seeding only {e adds}
    probes, never narrows the scan), then repeatedly probes the midpoint
    of every gap between non-adjacent known samples with differing
    outcomes until each flip is confined to one index step. If any probe
    returns [None] the whole index range is probed, matching the grid
    oracle's failure-path behaviour. [probe_many] receives a sorted list
    of not-yet-probed indices and must return an outcome for each.
    Returns all probed [(index, outcome)] pairs in ascending index
    order. *)
val adaptive_scan :
  n:int ->
  coarse:int ->
  seeds:int list ->
  (int list -> (int * bool option) list) ->
  (int * bool option) list

(** [search ?config ?checkpoint ?window ?hint ~stress ~kind ~placement
    cond] scans [window]'s log grid (default {!Window.default}:
    13 points over [1 kOhm, 100 GOhm]) for detection-outcome changes and
    refines each edge by bisection to the window's [rel_tol]. One edge
    yields {!Br}; an interior detected region yields {!Faulty_band};
    multiple regions or unrefinable edges yield {!Bands}. Scanned
    samples run as the lanes of ensemble-width chunks
    ({!Dramstress_dram.Sim_config.sweep_lanes}). Every simulation runs
    under [config] (default {!Dramstress_dram.Sim_config.default}).

    With [window.strategy = Adaptive] only a sparse subset of the grid
    is simulated (see {!Window.strategy} for the oracle relationship and
    its caveats). [hint] (used by the campaign planner's warm-start
    chains) is a list of border-resistance estimates from adjacent
    stress points; each seeds the grid interval containing it into the
    coarse pass. Hints only add probes — a warm-started search never
    sees fewer samples than a cold adaptive one. [hint] is ignored under
    [Grid].

    Grid samples and edge refinements that fail with a solver error
    ([Transient.Step_failed], [Newton.No_convergence],
    [Ops.Exhausted_retries]) are skipped / degraded to {!Unknown} and
    counted on [core.border.skipped_samples] /
    [core.border.unknown_edges]; other exceptions propagate. Every
    simulated sample (scan or bisection) counts on
    [core.border.probes].

    [checkpoint] memoizes the whole result keyed by every input that can
    change it (including {!Window.fingerprint}), so interrupted
    campaigns resume without re-simulating finished searches. Adaptive
    searches additionally record each probe and each refined edge, so a
    run killed mid-refinement resumes by re-simulating only the probes
    and brackets it had not finished. *)
val search :
  ?config:Dramstress_dram.Sim_config.t ->
  ?checkpoint:Dramstress_util.Checkpoint.t ->
  ?window:Window.t ->
  ?hint:float list ->
  stress:Dramstress_dram.Stress.t ->
  kind:Dramstress_defect.Defect.kind ->
  placement:Dramstress_defect.Defect.placement ->
  Detection.t ->
  result

(** [equal_result a b] — structural equality on results, NaN-safe (it
    compares the canonical {!encode_result} forms, under which every
    float round-trips bit-exactly). Two stores that replay the same
    simulation compare equal under it — the emptiness criterion of a
    campaign self-diff. *)
val equal_result : result -> result -> bool

(** [encode_result] / [decode_result] — the compact stable string form
    used by the checkpoint store ([%h] floats, so round-trips are exact).
    [decode_result] is total: it returns [None] on any foreign string. *)
val encode_result : result -> string

val decode_result : string -> result option

(** [covered_ranges polarity result ~r_min ~r_max] is the list of
    resistance intervals the test detects, per the defect's polarity, in
    ascending order. {!Unknown} edges contribute their {!edge_mid}. *)
val covered_ranges :
  Dramstress_defect.Defect.polarity -> result -> r_min:float -> r_max:float ->
  (float * float) list

(** [covered_range polarity result ~r_min ~r_max] is the hull of
    {!covered_ranges} — kept for compatibility; for {!Bands} results it
    overstates the covered area. *)
val covered_range :
  Dramstress_defect.Defect.polarity -> result -> r_min:float -> r_max:float ->
  (float * float) option

(** [coverage_width polarity result] is the total covered width in log
    decades — summed across bands — over the notional
    [1 kOhm, 100 GOhm] axis. *)
val coverage_width : Dramstress_defect.Defect.polarity -> result -> float

(** [improvement ?window polarity ~nominal ~stressed] — the growth
    factor of the covered failing-resistance range: for two single
    boundaries, the BR ratio oriented by polarity; for any other
    combination, the ratio of {!coverage_width} values (log decades —
    the same axis as the BR case, unlike the linear widths older
    revisions compared). [None] when either side detects nothing, or
    when the nominal coverage is narrower than one edge-location
    tolerance step ([window.rel_tol], default {!Window.default}'s 1% —
    formerly a hard-coded 1% regardless of the search's actual
    tolerance): below that the ratio is refinement noise, not signal. *)
val improvement :
  ?window:Window.t ->
  Dramstress_defect.Defect.polarity -> nominal:result -> stressed:result ->
  float option

(** [better polarity a b] — true when [a] covers strictly more of the
    resistance axis (in decades) than [b]. *)
val better : Dramstress_defect.Defect.polarity -> result -> result -> bool

(** Declarative campaign manifests.

    A campaign is the paper's actual deliverable: not one sweep but a
    {e comparison across stress settings} — border-resistance shifts
    between supply, timing and temperature corners for every injected
    defect (Figures 3–5, Table 1). A manifest declares that study once,
    in a file, and the campaign runner turns it into concrete simulation
    points, reusing whatever an earlier run already computed.

    The file format is a single s-expression (comments start with [;]
    and run to the end of the line):

    {v
    (campaign
      (name vdd-study)
      ;; bare id = both bit-line placements; (id true|comp) = one
      (defects O1 (Sg true) (B1 comp))
      ;; named stress settings; unset axes inherit the paper's nominal.
      ;; Any axis in the {!Dramstress_stressaxis.Stressaxis} registry
      ;; works: the paper's four plus wait, pattern, hammer, leak,
      ;; couple, twr-trim, tras-trim. The pattern axis also takes its
      ;; symbolic names (all0 | checkerboard | all1).
      (stress nominal)
      (stress low-vdd (vdd 2.1))
      (stress retention (wait 1.0) (pattern checkerboard) (leak 1e-13))
      ;; optional cross-product sweep, auto-labeled "vdd=2.1,temp=-33";
      ;; (range lo hi n [log|lin]) expands to n values spaced per the
      ;; axis's natural scale (wait/leak/hammer sweep logarithmically)
      (sweep (vdd 2.1 2.7) (temp -33 87))
      (sweep (wait (range 0.01 100 4)) (hammer 0 (range 10 1000 3)))
      ;; operation sequences evaluated per (defect, stress) pair
      (detections best (seq "w1 w1 w0 r0") (march "{up(w0);up(r0,w1)}"))
      ;; simulation-config overrides (Sim_config.v fields)
      (sim (steps-per-cycle 400) (deadline 30) (jobs 4))
      ;; border-search window, tolerance and scan strategy
      (border (r-min 1e3) (r-max 1e11) (grid-points 13) (rel-tol 0.01)
              (strategy grid)))
    v}

    [strategy] is [grid] (the exhaustive oracle, the default) or
    [adaptive] (sparse probing of the same grid — see
    {!Dramstress_core.Border.Window.strategy}); under [adaptive] the
    runner also warm-starts each point's bracket from the previous
    stress setting of the same (defect, detection) chain.

    Validation is collected, not fail-fast: {!of_string} gathers {e
    every} problem into one {!Invalid} report, in the style of
    {!Dramstress_circuit.Netlist.Invalid}. *)

(** How a (defect, stress) pair is to be tested. *)
type detection_spec =
  | Best
      (** synthesize the best detection condition at that stress
          ({!Dramstress_core.Sc_eval.best_detection}), retention pauses
          allowed *)
  | Best_no_pause  (** as [Best] but pause-free (nominal-test style) *)
  | Seq of Dramstress_core.Detection.t
      (** an explicit operation sequence, e.g. ["w1 w1 w0 r0"], parsed by
          {!Dramstress_core.Detection.of_string} *)
  | March of Dramstress_march.March.t
      (** a march test, lowered to its per-cell operation stream
          ({!Dramstress_march.March.to_detection}) *)

type t = {
  name : string;
  defects :
    (Dramstress_defect.Defect.entry * Dramstress_defect.Defect.placement)
    list;
  stresses : (string * Dramstress_dram.Stress.t) list;
      (** labeled stress settings, in declaration order (sweep entries
          expanded behind the explicit ones) *)
  detections : detection_spec list;  (** defaults to [[Best]] *)
  config : Dramstress_dram.Sim_config.t;
      (** resolved simulation configuration ([sim] section over
          {!Dramstress_dram.Sim_config.default}) *)
  window : Dramstress_core.Border.Window.t;
      (** border-search window, tolerance and strategy ([border]
          section over {!Dramstress_core.Border.Window.default}; the
          former flat [r_min]/[r_max]/[grid_points]/[rel_tol] fields
          live inside it now) *)
}

(** One problem found while reading a manifest. *)
type diagnostic =
  | Parse_error of { line : int; msg : string }
      (** the s-expression itself is malformed *)
  | Unknown_section of { section : string }
  | Missing_field of { section : string; field : string }
  | Empty_section of { section : string }
  | Unknown_defect of { id : string }
  | Duplicate_label of { label : string }
  | Bad_value of {
      section : string;
      field : string;
      value : string;
      msg : string;
    }
  | Bad_range of {
      axis : string;
      lo : float;
      hi : float;
      reason : string;
    }
      (** a [(range lo hi n [log|lin])] sweep whose bounds are empty
          (min >= max, or n < 1) or whose log spacing crosses zero *)

val pp_diagnostic : Format.formatter -> diagnostic -> unit

(** Raised with {e every} diagnostic found — the whole sick set in one
    report. A printer is registered, so uncaught escapes render
    readably. *)
exception Invalid of diagnostic list

(** [of_string ?source s] parses and validates a manifest. [source]
    names the input in error messages (defaults to ["<string>"]).
    Raises {!Invalid}. *)
val of_string : ?source:string -> string -> t

(** [load path] reads and parses the file. Raises {!Invalid} on
    manifest problems, [Sys_error] if unreadable. *)
val load : string -> t

(** [detection_label spec] — short display/canonical form: ["best"],
    ["best-nopause"], ["seq:w1,w0,r0"], ["march:<name>"]. *)
val detection_label : detection_spec -> string

val pp : Format.formatter -> t -> unit

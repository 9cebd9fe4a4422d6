(** A stress combination (SC): the operational parameters a test engineer
    can modify at test time (Section 2 of the paper), extended beyond the
    paper's four axes with retention, coupling-disturb and timing-trim
    knobs. Every extension field defaults to a neutral value under which
    the model behaves exactly as the four-axis original. *)

(** Data background held by the neighbour cell during the victim's
    sequence (the retention-test patterns: all-0, all-1, checkerboard).
    [All_1] is neutral — the historical model pinned the neighbour at
    [V_dd]. *)
type pattern = All_0 | All_1 | Checkerboard

val pattern_name : pattern -> string
val pattern_of_name : string -> pattern option

(** Patterns live on a float axis for the sweep machinery: 0, 1/2, 1 for
    all-0, checkerboard, all-1; [pattern_of_float] snaps to nearest. *)
val float_of_pattern : pattern -> float

val pattern_of_float : float -> pattern
val pp_pattern : Format.formatter -> pattern -> unit

type t = {
  tcyc : float;   (** clock cycle time, s *)
  duty : float;   (** clock duty cycle in (0, 1) *)
  vdd : float;    (** supply voltage, V *)
  temp_c : float; (** junction temperature, degrees Celsius *)
  wait : float;
    (** retention decay delay inserted before the first read, s;
        0 = none (neutral) *)
  pattern : pattern;  (** neighbour-cell data background *)
  hammer : int;
    (** aggressor (neighbour word line) activations inserted before the
        first read; 0 = none (neutral) *)
  leak : float;
    (** per-cell storage-node leakage conductance, S; 0 = ideal cell
        (neutral) *)
  couple : float;
    (** inter-cell coupling capacitance as a fraction of the storage
        capacitance; 0 = uncoupled (neutral) *)
  twr_trim : float;
    (** write-recovery trim: shifts the write-driver turn-on instant, s;
        positive trims shrink the write window (stress), 0 = nominal *)
  tras_trim : float;
    (** row-active trim: shifts word-line turn-off, s; negative trims
        shrink the active window (stress), 0 = nominal *)
}

(** The paper's nominal SC: t_cyc = 60 ns, duty = 0.5, V_dd = 2.4 V,
    T = +27 C — every extension axis at its neutral default. *)
val nominal : t

(** [temp_kelvin sc] converts {!field-temp_c} to kelvin — the unit the
    solver's [Options.temp] field expects. The record stores Celsius
    (what a datasheet or tester setting quotes); every consumer that
    needs an absolute temperature must convert through this function so
    the unit boundary lives in exactly one place. The paper's nominal
    +27 °C maps to 300.15 K. *)
val temp_kelvin : t -> float

(** [temp_k] is {!temp_kelvin} — the original (ambiguously named)
    spelling, kept for existing callers. *)
val temp_k : t -> float

val with_tcyc : t -> float -> t
val with_duty : t -> float -> t
val with_vdd : t -> float -> t
val with_temp_c : t -> float -> t
val with_wait : t -> float -> t
val with_pattern : t -> pattern -> t
val with_hammer : t -> int -> t
val with_leak : t -> float -> t
val with_couple : t -> float -> t
val with_twr_trim : t -> float -> t
val with_tras_trim : t -> float -> t

(** [key sc] prints every axis by name with [%h] floats, neutral or
    not: the stress part of every store key ({!Sim_config.key}). *)
val key : t -> string

(** [validate sc] raises [Invalid_argument] for nonphysical values
    (non-positive cycle time or supply, duty outside (0,1), temperature
    below absolute zero, negative wait/hammer/leak/couple, trims at
    least a full cycle long). *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit

(** The individual stress axes, for direction reports and sweeps. The
    first four are the paper's; the rest are the extension families
    (retention: wait/pattern/leak, disturb: hammer/couple, timing trim:
    tWR/tRAS). *)
type axis =
  | Cycle_time
  | Duty_cycle
  | Supply_voltage
  | Temperature
  | Wait_time
  | Pattern
  | Hammer
  | Leak
  | Couple
  | Twr_trim
  | Tras_trim

val pp_axis : Format.formatter -> axis -> unit

(** [set sc axis v] returns [sc] with one axis replaced. Discrete axes
    decode from the float: {!Pattern} via {!pattern_of_float},
    {!Hammer} by rounding. *)
val set : t -> axis -> float -> t

(** [get sc axis] reads one axis as a float ({!Pattern} via
    {!float_of_pattern}). *)
val get : t -> axis -> float

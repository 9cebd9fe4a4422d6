(** The stress-axis registry: one descriptor per {!Dramstress_dram.Stress.axis}.

    The paper optimizes four stresses; the model can express more
    (retention wait/pattern/leak, coupling-disturb hammer/couple,
    tWR/tRAS timing trims). This registry is the single place that
    knows, per axis: its manifest/CSV name, unit, sane sweep range and
    scale, the candidate values a direction probe samples, the
    one-notch nudge the optimizer applies, and whether the axis is a
    post-paper {e extension} (which governs the store-fingerprint
    suffix). Every layer above — {!Dramstress_core.Stressor},
    [Table1], campaign manifests — consults the registry instead of
    matching on axes, so a new axis registers here once and crosses
    with the rest everywhere. *)

type scale = Linear | Log

val scale_name : scale -> string

type t = {
  axis : Dramstress_dram.Stress.axis;
  name : string;           (** canonical manifest/CSV token *)
  aliases : string list;   (** accepted alternative spellings *)
  unit_ : string;          (** display unit; [""] for dimensionless *)
  scale : scale;           (** natural sweep spacing *)
  lo : float;              (** sane sweep range, low end *)
  hi : float;              (** sane sweep range, high end *)
  extension : bool;
    (** post-paper axis: participates in the fingerprint extension
        suffix, never in the four-field v1 prefix *)
  probe_values : Dramstress_dram.Stress.t -> float list;
    (** candidate values for a direction probe around the given SC *)
  nudge : Dramstress_dram.Stress.t -> float -> Dramstress_dram.Stress.t;
    (** one optimization notch: [nudge st sign] moves the axis one step
        up ([sign > 0]) or down, clamped to physical limits *)
}

(** Every axis, paper order first, extension families after. *)
val all : t list

(** [of_axis axis] — total: the registry covers every constructor. *)
val of_axis : Dramstress_dram.Stress.axis -> t

(** [find name] resolves a manifest/CLI token (canonical name or alias,
    case-insensitive). *)
val find : string -> t option

(** Canonical names, registry order — for diagnostics. *)
val names : unit -> string list

val name_of_axis : Dramstress_dram.Stress.axis -> string

(** [fingerprint_ext sc] is the content-address suffix contributed by
    extension axes: [""] when every extension axis sits at its neutral
    default — which is what keeps pre-extension store records
    addressable — and a deterministic ["|ext:name=%h,..."] listing of
    all extension axes otherwise. *)
val fingerprint_ext : Dramstress_dram.Stress.t -> string

(** Errors a sweep-range request can produce. *)
type range_error = Empty_range | Log_crosses_zero

val pp_range_error : Format.formatter -> range_error -> unit

(** [range ~scale ~lo ~hi n] is [n] values spanning [lo..hi] inclusive,
    spaced per [scale]. [Error Empty_range] when [lo >= hi] or [n < 1];
    [Error Log_crosses_zero] when a log range includes or touches 0. *)
val range :
  scale:scale -> lo:float -> hi:float -> int ->
  (float list, range_error) result

(** [value_string e v] renders one axis value for labels/CSV: patterns
    by name, hammer counts as integers, everything else as [%g]. *)
val value_string : t -> float -> string

val pp : Format.formatter -> t -> unit

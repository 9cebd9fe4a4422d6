(** Resistive defects inside a DRAM cell — the paper's Figure 7 catalog.

    A defect is a {e kind} (where it sits), a {e placement} (true or
    complementary bit line) and a resistance. The resistance is the swept
    parameter of the whole fault analysis: the border resistance (BR) is
    the value at which faulty behaviour first appears at the outputs. *)

(** Position of a resistive open along the cell's single series path
    (bit line -> access transistor -> storage capacitor -> plate). All
    three are electrically equivalent for the cell current; they are kept
    distinct because the paper draws them distinctly (O1, O2, O3). *)
type open_site =
  | At_bitline_contact   (** O1: between bit line and access drain *)
  | At_capacitor_contact (** O2: between access source and storage cap *)
  | At_plate_contact     (** O3: between storage cap and cell plate *)

type kind =
  | Open_cell of open_site
  | Short_to_gnd          (** Sg: storage node to ground *)
  | Short_to_vdd          (** Sv: storage node to V_dd *)
  | Bridge_to_paired_bl   (** B1: storage node to the paired bit line *)
  | Bridge_to_neighbour   (** B2: storage node to the neighbour cell's node *)

type placement =
  | True_bl  (** the defective cell sits on the true bit line *)
  | Comp_bl  (** ... on the complementary bit line; logic values invert *)

type t = { kind : kind; placement : placement; r : float }

(** [v kind placement r] builds a defect; [r] must be positive. *)
val v : kind -> placement -> float -> t

(** [with_r d r] changes the resistance. *)
val with_r : t -> float -> t

(** Fault polarity with respect to the resistance axis: opens and the
    paper's bridge behave faultily for resistances {e above} BR
    ([High_r_fails]); shorts fail for resistances {e below} BR
    ([Low_r_fails]). Determines bisection orientation and what "a more
    stressful BR" means (lower for opens, higher for shorts). *)
type polarity = High_r_fails | Low_r_fails

val polarity : kind -> polarity

(** [victim_bit kind] is the {e physical} storage level the defect
    attacks first: opens and Sv resist writing/holding a low level; Sg
    leaks a high level away; bridges to precharged-high neighbours
    disturb a low level. On a true-bit-line cell the logical victim is
    the same; on the complementary line it is inverted
    ({!logical_victim}). *)
val victim_bit : kind -> int

(** [logical_victim kind placement] is {!victim_bit} translated through
    the placement's data inversion — the value a test must write and
    read to attack the defect. *)
val logical_victim : kind -> placement -> int

(** Catalog entry: identifier, descriptive label, kind. *)
type entry = { id : string; label : string; kind : kind }

(** The paper's seven defects: O1, O2, O3, Sg, Sv, B1, B2. *)
val catalog : entry list

(** [find_entry id] looks up by identifier (["O1"] ... ["B2"]),
    case-insensitively. *)
val find_entry : string -> entry option

(** [kind_name k] is the catalog id ("O1" .. "B2") that {!pp_kind}
    prints, and [placement_name p] the text {!pp_placement} prints
    ("true", "comp."): store keys are built from them by concatenation,
    which allocates a fraction of what a formatter does. *)
val kind_name : kind -> string

val placement_name : placement -> string

(** [pp_kind], [pp_placement], [pp]: human-readable forms. *)
val pp_kind : Format.formatter -> kind -> unit
val pp_placement : Format.formatter -> placement -> unit
val pp : Format.formatter -> t -> unit

(** [describe_figure7 ()] renders the catalog as text (Figure 7 stand-in). *)
val describe_figure7 : unit -> string

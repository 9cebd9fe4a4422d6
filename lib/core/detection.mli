(** Detection conditions: operation sequences with expected read values.

    The paper writes these as [{... w1 w1 w0 r0 ...}] — prime the cell
    with the complement, write the victim value, read it back. A defect
    is {e detected} when any read returns something other than its
    expected value. *)

type step =
  | Write of int      (** write the logical bit (0 or 1) *)
  | Read of int       (** read, expecting the logical bit *)
  | Wait of float     (** retention pause, s *)
  | Hammer of int
      (** activate the neighbour (aggressor) word line for n full cycles
          without touching the victim's column — the coupling-disturb
          element. [n >= 1]. *)

type t = { steps : step list }

(** [v steps] validates bits are 0/1, pauses positive, hammer counts
    >= 1. *)
val v : step list -> t

(** [of_string s] parses the condition text of [br --condition] and of
    a manifest's [(seq "...")] item, e.g. ["w1 w1 w0 r0"] or
    ["w1,p1e-3,r"]. Tokens are separated by blanks or commas and are
    case-insensitive: [w0] [w1] write; [r0] [r1] read expecting that
    bit; a bare [r] expects the last written bit (0 before any write);
    [p<seconds>] pauses (finite, > 0); [ham] / [ham<n>] hammers the
    aggressor once / n >= 1 times. Any other token, a bad count or
    pause, or an empty condition is an [Error] naming the problem;
    nothing raises. *)
val of_string : string -> (t, string) result

(** [encode cond] is the exact canonical text (["w1,p0x1p-10,r1"]) of
    store keys and stored results; {!of_string} reads it back. *)
val encode : t -> string

(** [standard ~victim ~primes] is the paper's shape:
    [primes] writes of the complement, one write of [victim], one read of
    [victim]. [primes >= 1]. *)
val standard : victim:int -> primes:int -> t

(** [retention ~victim ~pause] writes [victim], waits, reads [victim] —
    the classic data-retention element used against high-resistance
    shorts. *)
val retention : victim:int -> pause:float -> t

(** [hammer ~victim ~count] writes [victim], pulses the aggressor word
    line [count] times, reads [victim] — the coupling-disturb element
    ("hammer the aggressor N times, then read the victim"). Cross it
    with the [c_couple] stress axis to expose inter-cell coupling
    defects. *)
val hammer : victim:int -> count:int -> t

(** [ops cond] lowers the condition to raw memory operations. *)
val ops : t -> Dramstress_dram.Ops.op list

(** [expected_reads cond] lists expected read values in order. *)
val expected_reads : t -> int list

(** [initial_vc cond ~stress ~defect] is the physical storage voltage the
    analysis starts from: the physical image of the first written bit's
    complement, so the first write does real work. *)
val initial_vc :
  t -> stress:Dramstress_dram.Stress.t -> defect:Dramstress_defect.Defect.t ->
  float

(** [judge ?min_separation cond outcome] is the pure detection verdict
    for an already-simulated run of [ops cond]: true when any read fails
    — a wrong bit, or a bit-line separation at strobe time below
    [min_separation] (default 0.5 V). Split out from {!detects} so
    batched sweeps ({!Border.search}) can simulate many resistances in
    one ensemble ({!Dramstress_dram.Ops.run_batch}) and judge each lane
    outcome separately. *)
val judge :
  ?min_separation:float -> t -> Dramstress_dram.Ops.outcome -> bool

(** [detects ?config ?min_separation ~stress ~defect cond] runs the
    condition electrically and reports whether any read fails: a wrong
    bit, or a bit-line separation at strobe time below [min_separation]
    (default 0.5 V) — a metastable output that a tester's VOH/VOL levels
    reject. [config] (default {!Dramstress_dram.Sim_config.default})
    parameterises the underlying run. Equivalent to simulating
    [ops cond] from [initial_vc] and applying {!judge}. *)
val detects :
  ?config:Dramstress_dram.Sim_config.t ->
  ?min_separation:float ->
  stress:Dramstress_dram.Stress.t ->
  defect:Dramstress_defect.Defect.t ->
  t ->
  bool

(** [pp ppf cond] prints the paper's notation, e.g.
    [{... w1, w1, w0, r0 ...}]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

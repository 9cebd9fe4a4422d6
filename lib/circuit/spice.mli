(** A small SPICE-deck reader producing a {!Netlist.t}.

    Supported dialect (one card per line, case-insensitive, [*] and [;]
    comments, values with SI suffixes [f p n u m k meg g t] and an
    optional unit tail such as [2.4V] or [100fF]):

    {v
      * rails and sources
      Vdd vdd 0 DC 2.4
      Vwl wl 0 PULSE(0 3.2 6n 0.5n 48n 0.5n 60n)
      Vpwl x 0 PWL(0 0 1n 1 2n 0)
      Iload out 0 DC 1m

      * passives
      R1 a b 200k
      C1 cell 0 100f

      * transistor models and instances (level-1/EKV parameters)
      .MODEL nch NMOS (VT0=0.7 KP=1e-4 LAMBDA=0.05 TC=1m MU=2 N=1.4)
      .MODEL pch PMOS (VT0=0.5 KP=3e-4)
      M1 drain gate source nch
      M2 d g s pch M=2

      * time-controlled switch: control waveform, on/off conductance
      S1 a b PULSE(0 1 10n 1n 20n 1n) GON=1e-3 GOFF=1e-12 VT=0.5
    v}

    MOSFET cards take three nodes (drain gate source; the model supplies
    the bulk behaviour). The PULSE period argument is optional.

    A deck is outside input: a malformed card of any kind — a bad or
    non-finite value, a wrong argument count, a non-positive R, C or
    M, a duplicate device name, a PULSE with a negative duration, PWL
    times that do not strictly increase, a model with a negative VT0 or
    a non-positive KP — raises {!Parse_error} and nothing else. *)

exception Parse_error of { line : int; message : string }

(** [parse_value s] reads a number with SI suffix: ["200k"] is 2e5,
    ["100f"] is 1e-13, ["3meg"] is 3e6. Empty input, junk and
    non-finite values (["nan"], ["inf"], ["1e400"]) are an [Error]
    with a message. *)
val parse_value : string -> (float, string) result

(** [parse source] builds a netlist from a deck. Raises {!Parse_error}
    on the first malformed card; line numbers are 1-based. *)
val parse : string -> Netlist.t

(** [parse_file path] reads and parses a deck file. *)
val parse_file : string -> Netlist.t

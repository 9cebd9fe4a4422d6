(** Folded-bit-line column netlist builder.

    One observable column: two bit lines (BL, BLB) sharing a
    cross-coupled sense amplifier, precharge/equalize devices, a write
    driver, a reference (dummy) cell on the side opposite the accessed
    cell, a neighbour cell (bridge target) and a data output buffer.

    The accessed cell sits on BL for {!Defect.True_bl} placement and on
    BLB for {!Defect.Comp_bl}; the reference fires on the other side.
    Control signals arrive as waveforms prepared by {!Ops}. *)

(** Control waveforms for one simulation run. Logic-level signals use
    0/1 with threshold 0.5; word lines carry volts. *)
type controls = {
  wl : Dramstress_circuit.Waveform.t;       (** accessed word line *)
  wl_ref : Dramstress_circuit.Waveform.t;   (** reference word line *)
  wl_nb : Dramstress_circuit.Waveform.t;
    (** neighbour (aggressor) word line — fired by hammer cycles,
        otherwise held low *)
  pre : Dramstress_circuit.Waveform.t;      (** precharge + equalize *)
  sae : Dramstress_circuit.Waveform.t;      (** sense-amplifier enable *)
  wr_acc_hi : Dramstress_circuit.Waveform.t; (** accessed line to V_dd *)
  wr_acc_lo : Dramstress_circuit.Waveform.t; (** accessed line to GND *)
  wr_ref_hi : Dramstress_circuit.Waveform.t; (** paired line to V_dd *)
  wr_ref_lo : Dramstress_circuit.Waveform.t; (** paired line to GND *)
  colsel : Dramstress_circuit.Waveform.t;   (** output-buffer connect *)
}

type built = {
  compiled : Dramstress_circuit.Netlist.compiled;
  acc_bl : string;   (** node name of the accessed bit line *)
  ref_bl : string;   (** node name of the paired (reference) bit line *)
  vc_node : string;  (** node name of the storage-capacitor plate being
                         observed (tracks defect-injection rewiring) *)
  cell_node : string;  (** storage node at the access transistor *)
  probes : string list;  (** standard probe set, includes the above *)
}

(** [build ~tech ~vdd ~controls ?leak_g ?couple ?defect ()] constructs
    and compiles the column. The defect, if any, is injected per its
    kind and placement.

    [leak_g] (S, default 0) adds a leakage conductance from each storage
    node to substrate — the retention-stress knob. [couple] (F, default
    0) adds a coupling capacitor (plus a fixed weak parallel bridge,
    the Ccouple/Rcouple pair) between the accessed and the neighbour
    storage node — the disturb-stress knob. At 0 neither adds a device,
    so the default netlist is unchanged. *)
val build :
  tech:Tech.t ->
  vdd:float ->
  controls:controls ->
  ?leak_g:float ->
  ?couple:float ->
  ?defect:Dramstress_defect.Defect.t ->
  unit ->
  built

(** [initial_conditions built ~tech ~vdd ~vc_init ~v_neighbour] is the IC
    list for a run: bit lines and DQ precharged to [vdd], reference cell
    empty, storage node at [vc_init], neighbour at [v_neighbour], sense
    rails parked. *)
val initial_conditions :
  built -> vdd:float -> vc_init:float -> v_neighbour:float ->
  (string * float) list

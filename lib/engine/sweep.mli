(** DC parameter sweeps: repeated operating-point solves while stepping
    one source — transfer curves, I–V characteristics.

    The stepped source must be a DC voltage source; its value is
    replaced at every point and the previous solution seeds the next
    Newton solve (continuation), which keeps strongly nonlinear curves
    converging. *)

type point = {
  value : float;               (** swept source value *)
  voltages : float array;      (** node voltages by node id *)
  unknowns : float array;
      (** raw MNA vector: free node voltages, then the floating
          sources' branch currents ({!Mna}) *)
}

type t = {
  source : string;
  points : point list;
  compiled : Dramstress_circuit.Netlist.compiled;
}

(** [run compiled ?opts ~source ~values ()] solves the DC operating
    point for each value of the named V-source. Raises
    [Invalid_argument] if the source is missing or not a DC source. *)
val run :
  Dramstress_circuit.Netlist.compiled ->
  ?opts:Options.t ->
  source:string ->
  values:float list ->
  unit ->
  t

(** [node_curve sweep name] extracts (swept value, node voltage) pairs.
    Raises [Not_found] for unknown nodes. *)
val node_curve : t -> string -> (float * float) list

(** [source_current_curve sweep name] extracts the branch current of a
    voltage source across the sweep — e.g. the drain current of a
    device tied to a zero-volt ammeter source. *)
val source_current_curve : t -> string -> (float * float) list

(** Unit helpers and physical constants (SI throughout the library). *)

val kilo : float -> float
val micro : float -> float
val nano : float -> float
val femto : float -> float

(** [celsius_to_kelvin t] converts a temperature. *)
val celsius_to_kelvin : float -> float

(** [kelvin_to_celsius t] converts a temperature. *)
val kelvin_to_celsius : float -> float

(** Boltzmann constant over electron charge, [V/K]. *)
val k_over_q : float

(** [thermal_voltage t_kelvin] is kT/q in volts. *)
val thermal_voltage : float -> float

(** [pp_si ppf v] prints [v] with an SI prefix and 4 significant digits,
    e.g. [181.2 k] — used for resistances and times in reports. *)
val pp_si : Format.formatter -> float -> unit

(** [si_string v] is {!pp_si} to a string. *)
val si_string : float -> string

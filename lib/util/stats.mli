(** Summary statistics for sweep results and benchmark reporting. *)

(** [mean xs] — raises [Invalid_argument] on an empty array. *)
val mean : float array -> float

(** [variance xs] is the population variance. *)
val variance : float array -> float

(** [min_max xs] — raises [Invalid_argument] on an empty array. *)
val min_max : float array -> float * float

(** [median xs] does not modify its argument. *)
val median : float array -> float

(** [quantile q xs] for [q] in [[0, 1]] with linear interpolation. *)
val quantile : float -> float array -> float

(** Piecewise-linear interpolation over sampled curves. *)

(** A sampled curve: strictly increasing abscissae with their ordinates. *)
type t

(** [of_points pts] builds a curve from [(x, y)] samples; the list is
    sorted by [x]. Raises [Invalid_argument] on duplicate abscissae or an
    empty list. *)
val of_points : (float * float) list -> t

(** [of_sorted_arrays xs ys] builds a curve directly over the given
    arrays, which must already be strictly increasing in [xs] — no sort,
    no copy (the arrays are aliased, so callers must not mutate them).
    O(n) validation only; raises [Invalid_argument] when out of order.
    This is the hot-path constructor for simulation traces, whose time
    axis is increasing by construction. *)
val of_sorted_arrays : float array -> float array -> t

(** [eval c x] linearly interpolates; clamps outside the sampled range. *)
val eval : t -> float -> float

(** [points c] returns the samples in increasing [x] order. *)
val points : t -> (float * float) list

(** [crossings c level] returns the abscissae where the curve crosses
    [level], linearly interpolated, in increasing order. Touch points that
    do not cross are excluded; exact hits at a sample are included once. *)
val crossings : t -> float -> float list

(** [first_crossing c level] is the smallest crossing or [None]. *)
val first_crossing : t -> float -> float option

(** [intersections a b] returns the abscissae where curves [a] and [b]
    intersect, by finding sign changes of their difference on the union of
    their sample grids. *)
val intersections : t -> t -> float list

(** [map_y f c] transforms ordinates. *)
val map_y : (float -> float) -> t -> t

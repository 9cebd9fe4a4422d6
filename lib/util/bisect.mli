(** Bracketed one-dimensional threshold search.

    Used by the border-resistance search ({!Dramstress_core.Border}).
    Searches work on arbitrary monotone-ish predicates, not only
    continuous functions, because the quantity of interest is often a
    pass/fail bit. *)

exception No_bracket
(** Raised when the two bracket endpoints evaluate identically. *)

(** [threshold ?tol pred lo hi] assumes [pred] flips exactly once
    between [lo] and [hi] and returns the boundary point: the returned
    value [x] satisfies: predicates at [lo] and [x +- tol] differ on the
    correct sides. Works whether [pred lo] is [true] or [false]; raises
    [No_bracket] when [pred lo = pred hi]. The result is the midpoint of
    the final bracket, after at most 200 halvings. *)
val threshold : ?tol:float -> (float -> bool) -> float -> float -> float

(** [threshold_log ?rel_tol pred lo hi] is [threshold] performed on a
    logarithmic axis (both endpoints must be positive); the bracket is
    narrowed until [hi/lo <= 1 + rel_tol] (default [1e-3]). Suited to
    resistance searches spanning decades. *)
val threshold_log :
  ?rel_tol:float -> (float -> bool) -> float -> float -> float

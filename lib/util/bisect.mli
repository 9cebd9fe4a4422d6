(** Bracketed one-dimensional root and threshold search.

    Used throughout the fault analysis to locate sense-amplifier
    thresholds ([V_sa]) and border resistances (BR). Searches work on
    arbitrary monotone-ish predicates, not only continuous functions,
    because the quantity of interest is often a pass/fail bit. *)

exception No_bracket
(** Raised when the two bracket endpoints evaluate identically. *)

(** [root ?tol ?max_iter f a b] finds [x] in [[a, b]] with [f x = 0] by
    bisection, given [f a] and [f b] of opposite sign. [tol] bounds the
    bracket width (default [1e-9] of the initial width, absolute floor
    [1e-15]). Raises [No_bracket] if the signs agree. *)
val root : ?tol:float -> ?max_iter:int -> (float -> float) -> float -> float -> float

(** [threshold ?tol ?max_iter pred lo hi] assumes [pred] flips exactly once
    between [lo] and [hi] and returns the boundary point: the returned
    value [x] satisfies: predicates at [lo] and [x +- tol] differ on the
    correct sides. Works whether [pred lo] is [true] or [false]; raises
    [No_bracket] when [pred lo = pred hi]. The result is the midpoint of
    the final bracket. *)
val threshold :
  ?tol:float -> ?max_iter:int -> (float -> bool) -> float -> float -> float

(** [threshold_log ?rel_tol ?max_iter pred lo hi] is [threshold] performed
    on a logarithmic axis (both endpoints must be positive); the bracket
    is narrowed until [hi/lo <= 1 + rel_tol] (default [1e-3]). Suited to
    resistance searches spanning decades. *)
val threshold_log :
  ?rel_tol:float -> ?max_iter:int -> (float -> bool) -> float -> float -> float

(** Result of a guarded threshold search over an interval. *)
type 'a guarded =
  | All_true      (** predicate holds on the whole interval *)
  | All_false     (** predicate holds nowhere on the interval *)
  | Crossing of 'a  (** predicate flips; payload is the boundary *)

(** [guarded_threshold ?tol pred lo hi] like {!threshold} but returns
    [All_true]/[All_false] instead of raising when there is no bracket. *)
val guarded_threshold :
  ?tol:float -> ?max_iter:int -> (float -> bool) -> float -> float ->
  float guarded

(** Dense linear algebra for circuit-sized systems (tens of unknowns).

    Matrices are row-major [float array array]; all operations are
    destructive only where documented. The LU factorization uses partial
    pivoting, which is sufficient for MNA matrices stamped with gmin
    regularization. *)

type matrix = float array array

(** [create n m] is an [n] x [m] zero matrix. *)
val create : int -> int -> matrix

(** [copy a] is a deep copy of [a]. *)
val copy : matrix -> matrix

(** [dims a] is [(rows, cols)]. *)
val dims : matrix -> int * int

(** [identity n] is the [n] x [n] identity. *)
val identity : int -> matrix

(** [mat_vec a x] is the product [a * x]. *)
val mat_vec : matrix -> float array -> float array

(** [mat_mul a b] is the product [a * b]. *)
val mat_mul : matrix -> matrix -> matrix

(** LU factorization with partial pivoting, kept with its permutation. *)
type lu

(** [lu_factor a] factors a copy of [a]. Raises [Singular] if the best
    available pivot is numerically zero. *)
val lu_factor : matrix -> lu

exception Singular of { row : int; pivot : float }
(** Raised when factorization meets a pivot column whose largest entry
    [pivot] falls below the rank threshold at elimination step [row] —
    the matrix is structurally singular or rank-deficient to working
    precision. The threshold is 1e-14 times the scale of the pivot's
    own row, capped at the matrix's largest entry and floored at
    1e-300. A row's scale is its largest original entry, grown by
    every elimination update it receives (multiplier times the
    updating row's scale), so a well-posed row of small conductances
    beside large ones is accepted while the residue of an O(1)
    cancellation is not. Pivot choice never reads the threshold. A
    matrix with a non-finite entry is rejected before elimination
    ([row] is that entry's row, [pivot] its value), and a NaN pivot is
    reported rather than divided through. *)

(** [lu_thresholds f] is the rank threshold each pivot of [f] was
    judged against, by elimination step. {!Sparse_lu} factors its
    system with the columns in its own fill-reducing order and applies
    the thresholds this factorization of the column-permuted matrix
    recorded when it replays it. A row's scale does not depend on the
    column order, but the pivots do, so whether a near-singular system
    is accepted can depend on the column order. The array aliases the
    factorization's own state — do not mutate. *)
val lu_thresholds : lu -> float array

(** [lu_solve lu b] solves [a * x = b] for the [a] given to [lu_factor].
    [b] is not modified. *)
val lu_solve : lu -> float array -> float array

(** [lu_factor_in_place a ~perm] factors [a] destructively (no matrix
    allocation): [a]'s rows are permuted and overwritten with the L and U
    factors. [perm] must have the same length as [a]; it is reset to the
    identity and filled with the pivoting permutation. The returned [lu]
    aliases [a] and [perm]. Raises [Singular] like {!lu_factor}. *)
val lu_factor_in_place : matrix -> perm:int array -> lu

(** [lu_perm f] is the row permutation chosen by partial pivoting:
    factored row [i] holds original row [lu_perm f].(i). {!Sparse_lu}
    seeds its fixed pivot order from this. The array aliases the
    factorization's own state — do not mutate. *)
val lu_perm : lu -> int array

(** [lu_solve_in_place lu ~scratch b] overwrites [b] with the solution of
    [a * x = b], allocation-free. [scratch] is caller-owned workspace of
    at least the system size; its contents are clobbered. *)
val lu_solve_in_place : lu -> scratch:float array -> float array -> unit

(** [solve a b] is [lu_solve (lu_factor a) b]. *)
val solve : matrix -> float array -> float array

(** [norm_inf x] is the max absolute entry of [x], 0 for empty. *)
val norm_inf : float array -> float

(** [norm_2 x] is the Euclidean norm of [x]. *)
val norm_2 : float array -> float

(** [sub x y] is the fresh vector [x - y]. *)
val sub : float array -> float array -> float array

(** [residual a x b] is the fresh vector [a*x - b]. *)
val residual : matrix -> float array -> float array -> float array

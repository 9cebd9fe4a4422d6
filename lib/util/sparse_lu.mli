(** Sparsity-aware LU over a flat slot vector, with a reusable
    symbolic analysis.

    MNA matrices for one circuit topology keep the same nonzero pattern
    across every time step, Newton iteration and sweep lane; only the
    numeric values change. A {!t} therefore fixes the storage format
    from the pattern and separates the two costs:

    - {e slots} — {!make} numbers the structural positions in CSR
      order: row by row in natural order, columns ascending within a
      row. {!slot} maps a position to its slot, and a system is handed
      to {!factor} as one [float array] of {!nnz} slot values.
      Positions off the pattern are exactly 0.0 by construction. The
      numbering depends only on the pattern, so two handles made from
      the same pattern agree on every slot;
    - {e symbolic analysis} — run once per topology: the slot values
      are scattered into a dense scratch matrix and one dense
      partially-pivoted factorization ({!Linalg.lu_factor}, the oracle)
      picks the pivot order. The permuted pattern is closed under
      elimination fill-in and the numeric refactor is compiled into
      flat integer schedules: the load map from input slot to factor
      slot, the fill slots to zero, the pivot slots, per pivot the
      multiplier slots with their update destinations, and per row the
      L and U lists of the two substitutions;
    - {e numeric refactorization} — run every {!factor}: load, then
      eliminate by walking the schedules, with no pivot search. Entries
      receive the same operations in the same order as the dense
      elimination, so the factors and solutions are bit for bit the
      dense ones under the same pivot order.

    A fixed pivot order can go stale when the matrix values drift far
    from the analysis point (a switch toggling between its on and off
    conductance, say). Every refactorization therefore guards its
    pivots. A pivot below the dense factorization's own
    [scale * 1e-14] threshold triggers a fresh analysis at the current
    values. A pivot between that and [scale * 1e-10] is often still
    the right one (on a long retention hold, C/dt sinks to ~1e-11 S
    while the order is unchanged), so the stored order is
    {e revalidated} first: if every pivot is strictly larger in
    magnitude than each entry below it in its column, it is the unique
    column maximum, {!Linalg.lu_factor} would pick exactly this
    permutation, and the factors are kept — bit for bit those a fresh
    analysis would produce. A tie, a larger entry below a pivot, or a
    non-finite entry falls back to the fresh analysis. Both the
    finiteness scan and the revalidation walk the slots and the
    multipliers only, O(nnz). Either way the answer is never wrong, and
    a fresh analysis runs only when the order really changed. A system
    that the dense factorization itself rejects raises
    {!Linalg.Singular} exactly like the dense path, and a system
    containing non-finite entries raises {!Linalg.Singular} without
    touching the stored analysis (so one poisoned solve cannot perturb
    the pivot order used by healthy ones — per-lane isolation in the
    ensemble engine depends on this).

    Activity feeds the [util.sparse_lu.symbolic_analyses] /
    [symbolic_reuse] / [numeric_refactor] / [reanalyses] telemetry
    counters. A successful revalidation counts as a numeric refactor
    with symbolic reuse, and on the
    [util.sparse_lu.pivot_revalidations] counter; [reanalyses] counts
    dense re-analyses only.

    A handle must not be shared between domains; each workspace owns
    its own. *)

type t

(** [make ~n ~pattern] prepares a handle for [n]x[n] systems whose
    structural nonzeros are [pattern]. [pattern] must be the
    {e structural} pattern — every position any assembly could ever
    write, independent of current values (a MOSFET's [gm] may be
    numerically zero at one iterate and not the next). *)
val make : n:int -> pattern:bool array array -> t

(** [nnz t] is the number of structural positions, the length of the
    value vector {!factor} takes. *)
val nnz : t -> int

(** [slot t i j] is the slot of structural position [(i, j)]. Raises
    [Invalid_argument] for a position off the pattern. *)
val slot : t -> int -> int -> int

(** [factor t a] (re)factors the system whose slot values are [a]
    (length {!nnz}) under the stored analysis, creating or refreshing
    the analysis as needed. [a] is left intact. Raises
    [Linalg.Singular] when the system is genuinely rank-deficient or
    contains non-finite entries. *)
val factor : t -> float array -> unit

(** [perm t] is a copy of the stored pivot order (factored row [i]
    holds row [(perm t).(i)] of the matrix), [None] before the first
    successful {!factor}. *)
val perm : t -> int array option

(** [solve t ~scratch b] overwrites [b] with the solution using the last
    {!factor}. [scratch] must hold at least [n] floats. *)
val solve : t -> scratch:float array -> float array -> unit


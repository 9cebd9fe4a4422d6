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
    - {e column order} — {!make} also fixes a column order [Q]
      ({!col_order}) from the pattern alone, by a symbolic Markowitz
      pass: each step eliminates the structural position of least
      (row count - 1) * (column count - 1) in the remaining
      submatrix, the first in column-major scan order, and only its
      column sequence is kept. Eliminating in that order keeps the
      factors of an MNA matrix on or near its own pattern, where the
      natural order eliminates the node rows before the voltage-source
      branch rows and about doubles the DRAM column's factor slots. Every
      handle made from one pattern has the same [Q], whatever values it
      later factors;
    - {e symbolic analysis} — run once per topology: the slot values
      are scattered into a dense scratch matrix [A·Q] (column [k] holds
      column [(col_order t).(k)] of the system) and one dense
      partially-pivoted factorization of it ({!Linalg.lu_factor}, the
      oracle) picks the row pivot order. The permuted pattern is closed
      under elimination fill-in and the numeric refactor is compiled
      into flat integer schedules: the load map from input slot to
      factor slot, the fill slots to zero, the pivot slots, per pivot
      the multiplier slots with their update destinations, and per row
      the L and U lists of the two substitutions;
    - {e numeric refactorization} — run every {!factor}: load, then
      eliminate by walking the schedules, with no pivot search. Entries
      receive the same operations in the same order as the dense
      elimination of [A·Q], so the factors are bit for bit the dense
      ones under the same pivot order, and {!solve} returns the dense
      solution of [A·Q y = b] un-permuted, [x.(q.(k)) = y.(k)].

    A fixed pivot order can go stale when the matrix values drift far
    from the analysis point (a switch toggling between its on and off
    conductance, say). Every refactorization therefore guards its
    pivots against the matrix scale (its largest entry). A pivot below
    [scale * 1e-14] — the cap of the dense factorization's row-scaled
    rank threshold — triggers a fresh analysis at the current values,
    which accepts or rejects the system by the dense rule itself: each
    pivot against 1e-14 times its own row's scale (see
    {!Linalg.Singular}). The numeric pass right after an analysis
    applies exactly the thresholds the dense factorization recorded
    ({!Linalg.lu_thresholds}), so both paths share one rule. A pivot
    between [scale * 1e-14] and [scale * 1e-10] is often still
    the right one (on a long retention hold, C/dt sinks to ~1e-11 S
    while the order is unchanged), so the stored order is
    {e revalidated} first: if every pivot is strictly larger in
    magnitude than each entry below it in its column of [A·Q], it is
    the unique column maximum, {!Linalg.lu_factor} would pick exactly this
    permutation, and the factors are kept — bit for bit those a fresh
    analysis would produce. A tie, a larger entry below a pivot, or a
    non-finite entry falls back to the fresh analysis. Both the
    finiteness scan and the revalidation walk the slots and the
    multipliers only, O(nnz). Either way the answer is never wrong, and
    a fresh analysis runs only when the order really changed. A system
    whose dense factorization of [A·Q] is rejected raises
    {!Linalg.Singular} exactly like that factorization (the pivots, and
    so the verdict on a nearly singular system, depend on [Q]), and a
    system
    containing non-finite entries raises {!Linalg.Singular} without
    touching the stored analysis (so one poisoned solve cannot perturb
    the pivot order used by healthy ones — per-lane isolation in the
    ensemble engine depends on this).

    Activity feeds the [util.sparse_lu.symbolic_analyses] /
    [symbolic_reuse] / [numeric_refactor] / [reanalyses] telemetry
    counters. A handle counts in plain ints of its own, and {!flush}
    adds them to the registry: its owner flushes once per run, not once
    per factorization. A successful revalidation counts as a numeric refactor
    with symbolic reuse, and on the
    [util.sparse_lu.pivot_revalidations] counter; [reanalyses] counts
    dense re-analyses only.

    A handle must not be shared between domains; each workspace owns
    its own, made by {!fresh} from one per topology. *)

type t

(** [make ~n ~pattern] prepares a handle for [n]x[n] systems whose
    structural nonzeros are [pattern]. [pattern] must be the
    {e structural} pattern — every position any assembly could ever
    write, independent of current values (a MOSFET's [gm] may be
    numerically zero at one iterate and not the next). *)
val make : n:int -> pattern:bool array array -> t

(** [fresh t] is a handle for the same pattern as [t], sharing its
    slots and its {!col_order} without recomputing them, and with no
    analysis and no counts yet: a second solver on one topology at the
    cost of an allocation. *)
val fresh : t -> t

(** [col_order t] is a copy of the column order [Q]: column [k] of the
    factored matrix [A·Q] is column [(col_order t).(k)] of the system.
    It depends on the pattern alone. *)
val col_order : t -> int array

(** [nnz t] is the number of structural positions, the length of the
    value vector {!factor} takes. *)
val nnz : t -> int

(** [slot t i j] is the slot of structural position [(i, j)]. Raises
    [Invalid_argument] for a position off the pattern. *)
val slot : t -> int -> int -> int

(** [factor t a] (re)factors the system whose slot values are the
    first {!nnz} of [a] (a caller may keep slots of its own after them)
    under the stored analysis, creating or refreshing
    the analysis as needed. [a] is left intact. Raises
    [Linalg.Singular] when the system is genuinely rank-deficient or
    contains non-finite entries. *)
val factor : t -> float array -> unit

(** [flush t] adds what [t] counted since the last flush to the
    telemetry counters (only while telemetry is on, as a direct probe
    would) and zeroes its cells. *)
val flush : t -> unit

(** [perm t] is a copy of the stored row pivot order (factored row [i]
    holds row [(perm t).(i)] of [A·Q]), [None] before the first
    successful {!factor}. *)
val perm : t -> int array option

(** Sizes of the compiled refactor schedule: [fill_in] is the number
    of factor slots beyond the {!nnz} structural ones, [multipliers]
    the divisions per refactor and [updates] its scheduled
    multiply-adds (a zero multiplier skips its row's). *)
type schedule = { fill_in : int; multipliers : int; updates : int }

(** [schedule t] reads the sizes of the stored analysis, [None] before
    the first successful {!factor}. *)
val schedule : t -> schedule option

(** [solve t ~scratch b] overwrites [b] with the solution using the last
    {!factor}. [scratch] must hold at least [n] floats. *)
val solve : t -> scratch:float array -> float array -> unit


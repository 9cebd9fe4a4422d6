(** Sparsity-aware LU with a reusable symbolic analysis.

    MNA matrices for one circuit topology keep the same nonzero pattern
    across every time step, Newton iteration and sweep lane; only the
    numeric values change. A {!t} therefore separates the two costs:

    - {e symbolic analysis} — run once per topology: a pivot order is
      taken from one dense partially-pivoted factorization of a
      representative matrix ({!Linalg.lu_factor}), the structural
      pattern is permuted accordingly and closed under elimination
      fill-in, and flat per-pivot / per-row index lists are built;
    - {e numeric refactorization} — run every {!factor}: the matrix rows
      are copied in pivot order and eliminated walking only the
      structural index lists, with no pivot search.

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
    non-finite entry falls back to the fresh analysis. Either way the
    answer is never wrong, and a fresh analysis runs only when the
    order really changed. A matrix that the dense factorization itself
    rejects raises {!Linalg.Singular} exactly like the dense path, and
    a matrix containing non-finite entries raises {!Linalg.Singular}
    without touching the stored analysis (so one poisoned solve cannot
    perturb the pivot order used by healthy ones — per-lane isolation
    in the ensemble engine depends on this).

    Activity feeds the [util.sparse_lu.symbolic_analyses] /
    [symbolic_reuse] / [numeric_refactor] / [reanalyses] telemetry
    counters and the always-on process-wide {!stats} block (the
    [--metrics] reconciliation mirror of [Ops.cache_stats]). A
    successful revalidation counts as a numeric refactor with symbolic
    reuse, and on the telemetry-only
    [util.sparse_lu.pivot_revalidations] counter; [reanalyses] counts
    dense re-analyses only.

    A handle must not be shared between domains; each workspace owns
    its own. *)

type t

(** [make ~n ~pattern] prepares a handle for [n]x[n] systems whose
    structural nonzeros are [pattern] (which is copied). [pattern] must
    be the {e structural} pattern — every position any assembly could
    ever write, independent of current values (a MOSFET's [gm] may be
    numerically zero at one iterate and not the next). *)
val make : n:int -> pattern:bool array array -> t

(** [factor t a] (re)factors [a] under the stored analysis, creating or
    refreshing the analysis as needed. [a] is left intact. Raises
    [Linalg.Singular] when the system is genuinely rank-deficient or
    contains non-finite entries. *)
val factor : t -> Linalg.matrix -> unit

(** [perm t] is a copy of the stored pivot order (factored row [i]
    holds row [(perm t).(i)] of the matrix), [None] before the first
    successful {!factor}. *)
val perm : t -> int array option

(** [solve t ~scratch b] overwrites [b] with the solution using the last
    {!factor}. [scratch] must hold at least [n] floats. *)
val solve : t -> scratch:float array -> float array -> unit

(** Process-wide activity totals, readable regardless of whether
    telemetry is enabled (like [Ops.cache_stats]): [analyses] counts
    first-time symbolic analyses, [reanalyses] the dense re-analyses of
    a stale pivot order (revalidated orders excluded),
    [numeric_refactor] every successful numeric factorization and
    [symbolic_reuse] the subset that reused an existing analysis. *)
type stats = {
  analyses : int;
  reanalyses : int;
  numeric_refactor : int;
  symbolic_reuse : int;
}

val stats : unit -> stats
val reset_stats : unit -> unit

module L = Linalg
module Tel = Telemetry

let c_analyses = Tel.Counter.make "util.sparse_lu.symbolic_analyses"
let c_reuse = Tel.Counter.make "util.sparse_lu.symbolic_reuse"
let c_refactor = Tel.Counter.make "util.sparse_lu.numeric_refactor"
let c_reanalyses = Tel.Counter.make "util.sparse_lu.reanalyses"

(* stale refactors rescued by pivot revalidation instead of a dense
   re-analysis; telemetry only, no always-on mirror *)
let c_revalidations = Tel.Counter.make "util.sparse_lu.pivot_revalidations"

(* always-on mirrors of the counters above, so [--metrics] can reconcile
   the telemetry block against an independent tally (the same contract
   [Ops.cache_stats] provides for the memo cache) *)
let g_analyses = Atomic.make 0
let g_reuse = Atomic.make 0
let g_refactor = Atomic.make 0
let g_reanalyses = Atomic.make 0

type stats = {
  analyses : int;
  reanalyses : int;
  numeric_refactor : int;
  symbolic_reuse : int;
}

let stats () =
  {
    analyses = Atomic.get g_analyses;
    reanalyses = Atomic.get g_reanalyses;
    numeric_refactor = Atomic.get g_refactor;
    symbolic_reuse = Atomic.get g_reuse;
  }

let reset_stats () =
  Atomic.set g_analyses 0;
  Atomic.set g_reuse 0;
  Atomic.set g_refactor 0;
  Atomic.set g_reanalyses 0

type analysis = {
  perm : int array;            (* factored row i holds A's row perm.(i) *)
  lower : int array array;     (* per pivot k: rows i > k with fill (i,k) *)
  upper : int array array;     (* per pivot k: cols j > k with fill (k,j) *)
  row_lower : int array array; (* per row i: cols j < i with fill (i,j) *)
  row_upper : int array array; (* per row i: cols j > i with fill (i,j) *)
  src_cols : int array array;
      (* per factored row i: structural cols of source row perm.(i) —
         the only entries of [a] a refactor needs to read (everything
         off-pattern is exactly 0.0 by construction) *)
  fill_cols : int array array;
      (* per factored row i: fill-in positions (pattern closure minus
         structural) that elimination writes and must start at 0.0 *)
}

type t = {
  n : int;
  base : bool array array;  (* structural pattern, natural row order *)
  f : float array array;    (* permuted working copy; holds the factors *)
  mutable analysis : analysis option;
}

let make ~n ~pattern =
  if Array.length pattern <> n then invalid_arg "Sparse_lu.make: pattern rows";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Sparse_lu.make: pattern cols")
    pattern;
  {
    n;
    base = Array.map Array.copy pattern;
    f = Array.make_matrix n n 0.0;
    analysis = None;
  }

let check_finite_matrix a n =
  for i = 0 to n - 1 do
    let row = a.(i) in
    for j = 0 to n - 1 do
      let v = row.(j) in
      if not (v -. v = 0.0) then
        (* a non-finite system is as unusable as a singular one, and —
           critically — must NOT reach the dense analysis below: an
           all-Inf matrix can factor "successfully" into a garbage pivot
           order that would then poison every later solve sharing this
           handle *)
        raise (L.Singular { row = i; pivot = v })
    done
  done

(* callers run [check_finite_matrix] first *)
let analyse t a =
  let n = t.n in
  (* pivot order from one dense partially-pivoted factorization at the
     current values; raises L.Singular for rank-deficient systems *)
  let dense = L.lu_factor a in
  let perm = Array.copy (L.lu_perm dense) in
  (* permuted structural pattern, closed under elimination fill-in *)
  let pat = Array.init n (fun i -> Array.copy t.base.(perm.(i))) in
  for k = 0 to n - 1 do
    let pk = pat.(k) in
    for i = k + 1 to n - 1 do
      if pat.(i).(k) then begin
        let pi = pat.(i) in
        for j = k + 1 to n - 1 do
          if pk.(j) then pi.(j) <- true
        done
      end
    done
  done;
  let cols_of pred =
    Array.init n (fun i ->
        let acc = ref [] in
        for j = n - 1 downto 0 do
          if pred i j && pat.(i).(j) then acc := j :: !acc
        done;
        Array.of_list !acc)
  in
  let rows_of k =
    let acc = ref [] in
    for i = n - 1 downto k + 1 do
      if pat.(i).(k) then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  t.analysis <-
    Some
      {
        perm;
        lower = Array.init n rows_of;
        upper = cols_of (fun i j -> j > i);
        row_lower = cols_of (fun i j -> j < i);
        row_upper = cols_of (fun i j -> j > i);
        src_cols =
          Array.init n (fun i ->
              let base = t.base.(perm.(i)) in
              let acc = ref [] in
              for j = n - 1 downto 0 do
                if base.(j) then acc := j :: !acc
              done;
              Array.of_list !acc);
        fill_cols =
          Array.init n (fun i ->
              let base = t.base.(perm.(i)) in
              let acc = ref [] in
              for j = n - 1 downto 0 do
                if pat.(i).(j) && not base.(j) then acc := j :: !acc
              done;
              Array.of_list !acc);
      }

(* internal: a pivot fell below the dense threshold under a stored order *)
exception Stale

(* Numeric refactorization under a fixed analysis: copy rows in pivot
   order, then eliminate walking only the structural index lists. Every
   pivot must clear the dense factorization's own [scale * 1e-14]
   threshold: below it, [strict = true] (right after a fresh analysis,
   whose dense factorization accepted these exact pivots, so the pass
   cannot loop) raises [L.Singular] and [strict = false] raises [Stale].
   With [strict = false] a pivot below the tighter [scale * 1e-10] guard
   is let through but reported: the result is [true] when some pivot
   fell under the guard, and the caller must then revalidate the order
   ({!unique_pivots}) before trusting the factors. *)
let refactor t an a ~strict =
  let n = t.n and f = t.f in
  let scale = ref 0.0 in
  (* load only the structural entries of each source row (off-pattern
     entries are exactly 0.0 by construction, so they contribute nothing
     to the factors or the pivot scale) and zero the fill-in slots the
     elimination below writes into. O(nnz) instead of O(n^2), which is
     most of a refactor's cost on circuit-sized systems. *)
  for i = 0 to n - 1 do
    let src = a.(an.perm.(i)) in
    let fi = f.(i) in
    let cols = an.src_cols.(i) in
    for jj = 0 to Array.length cols - 1 do
      let j = Array.unsafe_get cols jj in
      let v = Array.unsafe_get src j in
      Array.unsafe_set fi j v;
      let av = Float.abs v in
      if av > !scale then scale := av
    done;
    let fills = an.fill_cols.(i) in
    for jj = 0 to Array.length fills - 1 do
      Array.unsafe_set fi (Array.unsafe_get fills jj) 0.0
    done
  done;
  let threshold = Float.max 1e-300 (!scale *. 1e-14) in
  let guard =
    if strict then threshold else Float.max 1e-300 (!scale *. 1e-10)
  in
  let small = ref false in
  for k = 0 to n - 1 do
    let fk = f.(k) in
    let pkk = fk.(k) in
    (* [not >=] rather than [<] so a NaN pivot is also caught *)
    if not (Float.abs pkk >= guard) then begin
      if not (Float.abs pkk >= threshold) then
        if strict then raise (L.Singular { row = k; pivot = pkk })
        else raise_notrace Stale;
      small := true
    end;
    let low = an.lower.(k) and up = an.upper.(k) in
    for ii = 0 to Array.length low - 1 do
      let fi = f.(Array.unsafe_get low ii) in
      let m = fi.(k) /. pkk in
      fi.(k) <- m;
      if m <> 0.0 then
        for jj = 0 to Array.length up - 1 do
          let j = Array.unsafe_get up jj in
          Array.unsafe_set fi j
            (Array.unsafe_get fi j -. (m *. Array.unsafe_get fk j))
        done
    done
  done;
  !small

(* Pivot revalidation after a refactor: is every pivot strictly larger
   in magnitude than each entry below it in its column (entries off
   [lower] are exactly 0.0)? The refactor has already replaced those
   entries by their multipliers [m = f.(i).(k) /. pivot], and for a
   finite non-zero pivot IEEE division gives [|m| < 1] exactly when
   [|f.(i).(k)| < |pivot|]: even the largest float below [|pivot|]
   divides to at most the largest float below 1.0. NaN fails the test.

   When it holds at every step, each pivot is the unique column
   maximum, so [Linalg.lu_factor] — first maximum wins, the same
   [m <> 0.0] elimination, the same threshold — would choose this very
   permutation, and the factors equal bit for bit those a fresh
   analysis would produce. *)
let unique_pivots t an =
  let ok = ref true in
  for k = 0 to t.n - 1 do
    let low = an.lower.(k) in
    for ii = 0 to Array.length low - 1 do
      if not (Float.abs t.f.(Array.unsafe_get low ii).(k) < 1.0) then
        ok := false
    done
  done;
  !ok

let record_refactor ~reused =
  Tel.Counter.incr c_refactor;
  Atomic.incr g_refactor;
  if reused then begin
    Tel.Counter.incr c_reuse;
    Atomic.incr g_reuse
  end

(* A fresh analysis at the current values. Callers run
   [check_finite_matrix] first: it raises L.Singular before [analyse]
   mutates [t.analysis], so a poisoned matrix leaves the stored pivot
   order untouched for the next healthy solve. *)
let reanalyse t a =
  analyse t a;
  let an = Option.get t.analysis in
  ignore (refactor t an a ~strict:true : bool);
  record_refactor ~reused:false

let stale t a =
  Tel.Counter.incr c_reanalyses;
  Atomic.incr g_reanalyses;
  reanalyse t a

let factor t a =
  match t.analysis with
  | None ->
    check_finite_matrix a t.n;
    Tel.Counter.incr c_analyses;
    Atomic.incr g_analyses;
    reanalyse t a
  | Some an -> (
    match refactor t an a ~strict:false with
    | false -> record_refactor ~reused:true
    | true ->
      (* a small pivot is not a wrong pivot: on long holds C/dt sinks
         below the guard while the stored order is still the
         partial-pivot order. Revalidate it exactly before paying for a
         dense analysis that would pick the same permutation again. *)
      check_finite_matrix a t.n;
      if unique_pivots t an then begin
        Tel.Counter.incr c_revalidations;
        record_refactor ~reused:true
      end
      else stale t a
    | exception Stale ->
      check_finite_matrix a t.n;
      stale t a)

let perm t = Option.map (fun an -> Array.copy an.perm) t.analysis

let solve t ~scratch b =
  let an =
    match t.analysis with
    | Some an -> an
    | None -> invalid_arg "Sparse_lu.solve: no factorization"
  in
  let n = t.n and f = t.f in
  assert (Array.length b = n);
  assert (Array.length scratch >= n);
  for i = 0 to n - 1 do
    scratch.(i) <- b.(an.perm.(i))
  done;
  (* forward substitution: L has unit diagonal *)
  for i = 1 to n - 1 do
    let cols = an.row_lower.(i) in
    let nc = Array.length cols in
    if nc > 0 then begin
      let fi = f.(i) in
      let s = ref scratch.(i) in
      for jj = 0 to nc - 1 do
        let j = Array.unsafe_get cols jj in
        s := !s -. (Array.unsafe_get fi j *. Array.unsafe_get scratch j)
      done;
      scratch.(i) <- !s
    end
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let cols = an.row_upper.(i) in
    let fi = f.(i) in
    let s = ref scratch.(i) in
    for jj = 0 to Array.length cols - 1 do
      let j = Array.unsafe_get cols jj in
      s := !s -. (Array.unsafe_get fi j *. Array.unsafe_get scratch j)
    done;
    scratch.(i) <- !s /. fi.(i)
  done;
  Array.blit scratch 0 b 0 n

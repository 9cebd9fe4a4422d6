module L = Linalg
module Tel = Telemetry

(* a handle's activity, counted in its own [counts] cell by cell, in
   this order, and added to the registry by [flush]; a revalidation is
   a stale refactor rescued by pivot revalidation instead of a dense
   re-analysis *)
let counters =
  Array.map Tel.Counter.make
    [| "util.sparse_lu.symbolic_analyses"; "util.sparse_lu.symbolic_reuse";
       "util.sparse_lu.numeric_refactor"; "util.sparse_lu.reanalyses";
       "util.sparse_lu.pivot_revalidations" |]

let c_analyses = 0
let c_reuse = 1
let c_refactor = 2
let c_reanalyses = 3
let c_revalidations = 4

(* The factors live in one flat [lu] vector over the permuted pattern
   closed under fill-in, and every loop of a refactor or a substitution
   walks a flat integer schedule compiled once per analysis. Factor
   slots extend the input numbering: a structural position keeps its
   input slot wherever the pivot order moves its row, and the fill-in
   positions take the slots from [nnz] up, so loading a system is one
   straight copy followed by zeroing the fill. *)
type analysis = {
  perm : int array;   (* factored row i holds A's row perm.(i) *)
  thresholds : float array;
      (* per pivot k: the rank threshold the dense analysis judged it
         against ({!Linalg.lu_thresholds}) *)
  lu : float array;   (* L (unit diagonal implied) and U, by factor slot *)
  diag : int array;   (* per pivot k: factor slot of (k, k) *)
  mult_start : int array;
      (* per pivot k: [mult_slot.(mult_start.(k) .. mult_start.(k+1) - 1)]
         are the slots of (i, k), rows i > k ascending *)
  mult_slot : int array;
  upd_dst : int array;
      (* per multiplier (i, k), in [mult_slot] order, one destination
         slot (i, j) per entry of pivot row k's U list below; its source
         is the matching (k, j) *)
  lower_start : int array;  (* per row i: L entries (i, j), j < i ascending *)
  lower_slot : int array;
  lower_col : int array;
  upper_start : int array;  (* per row i: U entries (i, j), j > i ascending *)
  upper_slot : int array;
  upper_col : int array;
}

(* Everything but [analysis] depends on the pattern alone and is never
   mutated, so handles made by [fresh] share it. *)
type t = {
  n : int;
  (* structural pattern in CSR, natural row order: input slot s holds
     row i, column [col.(s)] for [row_start.(i) <= s < row_start.(i+1)] *)
  row_start : int array;
  col : int array;
  order : int array;  (* Q: column k of A·Q is column order.(k) of A *)
  qcol : int array;   (* per input slot: its column in A·Q *)
  mutable analysis : analysis option;
  counts : int array;  (* per [counters] entry, since the last [flush] *)
}

(* CSR over the positions [(i, j)] of an [n]x[n] grid with [keep i j],
   rows in order and columns ascending: the row starts, and [f i j] for
   each kept position *)
let csr n keep f =
  let start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let c = ref start.(i) in
    for j = 0 to n - 1 do
      if keep i j then incr c
    done;
    start.(i + 1) <- !c
  done;
  let v = Array.make start.(n) 0 and p = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if keep i j then begin
        v.(!p) <- f i j;
        incr p
      end
    done
  done;
  (start, v)

(* Markowitz column order from the pattern alone: eliminate the pattern
   symbolically, each step at the active position of least
   (row count - 1) * (column count - 1), the first in column-major scan
   order, and keep the sequence of pivot columns (the rows are left to
   the dense partial pivoting). The scan walks per-column row lists and
   the counts of the active submatrix are updated as the pivot row and
   column leave and fill-in arrives, so a step costs about the nonzeros
   it touches; a cost-0 position cannot be beaten and ends its scan. A
   structurally singular remainder keeps its columns ascending. *)
let markowitz_order n ~row_start ~col =
  (* positions by column (rows ascending) and by row, from the CSR;
     entries of eliminated rows and columns stay and are skipped *)
  let col_rows = Array.make n [] and row_cols = Array.make n [] in
  for i = n - 1 downto 0 do
    for s = row_start.(i + 1) - 1 downto row_start.(i) do
      col_rows.(col.(s)) <- i :: col_rows.(col.(s));
      row_cols.(i) <- col.(s) :: row_cols.(i)
    done
  done;
  let rows = Array.map List.length row_cols in
  let cols = Array.map List.length col_rows in
  let row_live = Array.make n true and col_live = Array.make n true in
  let rec insert i = function
    | r :: rest when r < i -> r :: insert i rest
    | l -> i :: l
  in
  let best = ref 0 and bi = ref 0 and bj = ref 0 in
  let rec scan j = function
    | [] -> ()
    | i :: rest ->
      if row_live.(i) then begin
        let cost = (rows.(i) - 1) * (cols.(j) - 1) in
        if cost < !best then begin
          best := cost;
          bi := i;
          bj := j;
          if cost = 0 then raise_notrace Exit
        end
      end;
      scan j rest
  in
  let pick () =
    best := max_int;
    bi := -1;
    (try
       for j = 0 to n - 1 do
         if col_live.(j) then scan j col_rows.(j)
       done
     with Exit -> ());
    (!bi, !bj)
  in
  let order = Array.make n 0 and k = ref 0 in
  let rec eliminate () =
    match pick () with
    | -1, _ -> ()
    | p, q ->
      order.(!k) <- q;
      incr k;
      (* fill-in: (i, j) for every active (i, q) and (p, j) *)
      List.iter
        (fun i ->
          if row_live.(i) && i <> p then begin
            List.iter
              (fun j ->
                if col_live.(j) && j <> q && not (List.mem j row_cols.(i))
                then begin
                  col_rows.(j) <- insert i col_rows.(j);
                  row_cols.(i) <- j :: row_cols.(i);
                  rows.(i) <- rows.(i) + 1;
                  cols.(j) <- cols.(j) + 1
                end)
              row_cols.(p);
            rows.(i) <- rows.(i) - 1
          end)
        col_rows.(q);
      List.iter
        (fun j -> if col_live.(j) then cols.(j) <- cols.(j) - 1)
        row_cols.(p);
      row_live.(p) <- false;
      col_live.(q) <- false;
      eliminate ()
  in
  eliminate ();
  Array.iteri
    (fun j live ->
      if live then begin
        order.(!k) <- j;
        incr k
      end)
    col_live;
  order

let make ~n ~pattern =
  if Array.length pattern <> n then invalid_arg "Sparse_lu.make: pattern rows";
  Array.iter
    (fun row ->
      if Array.length row <> n then invalid_arg "Sparse_lu.make: pattern cols")
    pattern;
  let row_start, col = csr n (fun i j -> pattern.(i).(j)) (fun _ j -> j) in
  let order = markowitz_order n ~row_start ~col in
  let pos = Array.make n 0 in
  Array.iteri (fun k j -> pos.(j) <- k) order;
  { n; row_start; col; order; qcol = Array.map (fun j -> pos.(j)) col;
    analysis = None; counts = Array.make (Array.length counters) 0 }

let fresh t =
  { t with analysis = None; counts = Array.make (Array.length counters) 0 }

let[@inline] count t k = t.counts.(k) <- t.counts.(k) + 1

let flush t =
  Array.iteri
    (fun k n ->
      if n <> 0 then begin
        Tel.Counter.add counters.(k) n;
        t.counts.(k) <- 0
      end)
    t.counts

let col_order t = Array.copy t.order

let nnz t = t.row_start.(t.n)

let slot t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then
    invalid_arg "Sparse_lu.slot: out of range";
  let rec find s =
    if s >= t.row_start.(i + 1) then
      invalid_arg "Sparse_lu.slot: not a structural position"
    else if t.col.(s) = j then s
    else find (s + 1)
  in
  find t.row_start.(i)

(* O(nnz): everything off the pattern is exactly 0.0 by construction *)
let check_finite t a =
  for i = 0 to t.n - 1 do
    for s = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      let v = a.(s) in
      if not (v -. v = 0.0) then
        (* a non-finite system is as unusable as a singular one. The
           dense analysis rejects it too, but a revalidated order never
           reaches that analysis, and a poisoned system must neither
           cost nor count as one *)
        raise (L.Singular { row = i; pivot = v })
    done
  done

(* callers run [check_finite] first *)
let analyse t a =
  let n = t.n in
  (* row pivot order from one dense partially-pivoted factorization of
     A·Q at the current values (the dense oracle); raises L.Singular for
     rank-deficient systems. From here on every column index is one of
     A·Q *)
  let dense = L.create n n in
  for i = 0 to n - 1 do
    for s = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      dense.(i).(t.qcol.(s)) <- a.(s)
    done
  done;
  let d = L.lu_factor dense in
  let perm = Array.copy (L.lu_perm d) in
  let inv = Array.make n 0 in
  Array.iteri (fun k r -> inv.(r) <- k) perm;
  (* permuted structural pattern, closed under elimination fill-in; the
     diagonal is kept even off the pattern so every pivot has a slot *)
  let pat = Array.make_matrix n n false in
  for i = 0 to n - 1 do
    for s = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      pat.(inv.(i)).(t.qcol.(s)) <- true
    done
  done;
  for k = 0 to n - 1 do
    pat.(k).(k) <- true;
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
  (* factor slots: a structural position keeps its input slot, fill-in
     is numbered from [nnz] up *)
  let fslot = Array.make_matrix n n (-1) in
  for i = 0 to n - 1 do
    for s = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      fslot.(inv.(i)).(t.qcol.(s)) <- s
    done
  done;
  let nf = ref (nnz t) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if pat.(i).(j) && fslot.(i).(j) < 0 then begin
        fslot.(i).(j) <- !nf;
        incr nf
      end
    done
  done;
  (* per-row L / U lists *)
  let lower i j = j < i && pat.(i).(j) and upper i j = j > i && pat.(i).(j) in
  let slot_of i j = fslot.(i).(j) and col_of _ j = j in
  let lower_start, lower_slot = csr n lower slot_of in
  let upper_start, upper_slot = csr n upper slot_of in
  (* per pivot k, the rows i > k it eliminates: column k of L *)
  let below k i = lower i k in
  let mult_start, mult_slot = csr n below (fun k i -> fslot.(i).(k)) in
  let _, mult_row = csr n below (fun _ i -> i) in
  let upper_col = snd (csr n upper col_of) in
  (* per multiplier (i, k), the destinations (i, j) of row k's U list *)
  let upd = ref [] in
  for k = 0 to n - 1 do
    for mi = mult_start.(k) to mult_start.(k + 1) - 1 do
      for u = upper_start.(k) to upper_start.(k + 1) - 1 do
        upd := fslot.(mult_row.(mi)).(upper_col.(u)) :: !upd
      done
    done
  done;
  t.analysis <-
    Some
      {
        perm;
        thresholds = L.lu_thresholds d;
        lu = Array.make !nf 0.0;
        diag = Array.init n (fun k -> fslot.(k).(k));
        mult_start;
        mult_slot;
        upd_dst = Array.of_list (List.rev !upd);
        lower_start;
        lower_slot;
        lower_col = snd (csr n lower col_of);
        upper_start;
        upper_slot;
        upper_col;
      }

(* internal: a pivot fell below the matrix-scale threshold under a
   stored order *)
exception Stale

(* Numeric refactorization under a fixed analysis: load the slot values
   and zero the fill-in, then eliminate walking the compiled
   schedule — pivots in order, rows below ascending, columns ascending,
   exactly the order of the dense elimination.

   [strict = true] runs right after a fresh analysis, at the values
   the dense factorization accepted: every pivot must clear the
   row-scaled threshold that factorization recorded for it, else
   [L.Singular] (one rule for both paths; the pivots are the dense
   ones bit for bit, so the pass cannot loop). [strict = false] judges
   the pivots against the matrix scale instead, which only chooses
   between keeping the stored order and re-analysing — both give the
   same factors. A pivot below [scale * 1e-14] raises [Stale]; one
   below the tighter [scale * 1e-10] guard is let through but
   reported: the result is [true] when some pivot fell under the
   guard, and the caller must then revalidate the order
   ({!unique_pivots}) before trusting the factors. *)
let refactor an a ~nnz ~strict =
  (* unchecked accesses: [factor] checked that [a] holds [nnz] values,
     [lu] extends them, and every schedule index was built for [lu] *)
  let lu = an.lu in
  (* load, and the pivot scale on the way; off-pattern entries are
     exactly 0.0 by construction, so they add nothing to either *)
  let scale = ref 0.0 in
  for s = 0 to nnz - 1 do
    let v = Array.unsafe_get a s in
    Array.unsafe_set lu s v;
    let av = Float.abs v in
    if av > !scale then scale := av
  done;
  for s = nnz to Array.length lu - 1 do
    Array.unsafe_set lu s 0.0
  done;
  let threshold = Float.max 1e-300 (!scale *. 1e-14) in
  let guard = Float.max 1e-300 (!scale *. 1e-10) in
  let small = ref false in
  let diag = an.diag and mult_start = an.mult_start in
  let mult_slot = an.mult_slot and upd_dst = an.upd_dst in
  let upper_start = an.upper_start and upper_slot = an.upper_slot in
  let d = ref 0 in
  for k = 0 to Array.length diag - 1 do
    let pkk = Array.unsafe_get lu (Array.unsafe_get diag k) in
    (* [not >=] rather than [<] so a NaN pivot is also caught *)
    if strict then begin
      if not (Float.abs pkk >= Array.unsafe_get an.thresholds k) then
        raise (L.Singular { row = k; pivot = pkk })
    end
    else if not (Float.abs pkk >= guard) then begin
      if not (Float.abs pkk >= threshold) then raise_notrace Stale;
      small := true
    end;
    let u0 = Array.unsafe_get upper_start k in
    let u1 = Array.unsafe_get upper_start (k + 1) in
    for mi = Array.unsafe_get mult_start k
        to Array.unsafe_get mult_start (k + 1) - 1 do
      let ms = Array.unsafe_get mult_slot mi in
      let m = Array.unsafe_get lu ms /. pkk in
      Array.unsafe_set lu ms m;
      (if m <> 0.0 then
         let base = !d - u0 in
         for u = u0 to u1 - 1 do
           let dst = Array.unsafe_get upd_dst (base + u) in
           Array.unsafe_set lu dst
             (Array.unsafe_get lu dst
             -. (m *. Array.unsafe_get lu (Array.unsafe_get upper_slot u)))
         done);
      d := !d + (u1 - u0)
    done
  done;
  !small

(* Pivot revalidation after a refactor: is every pivot strictly larger
   in magnitude than each entry below it in its column (entries off the
   multiplier schedule are exactly 0.0)? The refactor has already
   replaced those entries by their multipliers [m = entry /. pivot],
   and for a finite non-zero pivot IEEE division gives [|m| < 1]
   exactly when [|entry| < |pivot|]: even the largest float below
   [|pivot|] divides to at most the largest float below 1.0. NaN fails
   the test.

   When it holds at every step, each pivot is the unique column
   maximum, so [Linalg.lu_factor] — first maximum wins, the same
   [m <> 0.0] elimination, a threshold no higher — would choose this very
   permutation, and the factors equal bit for bit those a fresh
   analysis would produce. *)
let unique_pivots an =
  let ok = ref true and lu = an.lu and mult_slot = an.mult_slot in
  for mi = 0 to Array.length mult_slot - 1 do
    let m = Array.unsafe_get lu (Array.unsafe_get mult_slot mi) in
    if not (Float.abs m < 1.0) then ok := false
  done;
  !ok

let record_refactor t ~reused =
  count t c_refactor;
  if reused then count t c_reuse

(* A fresh analysis at the current values. Callers run [check_finite]
   first: it raises L.Singular before [analyse] mutates [t.analysis],
   so a poisoned matrix leaves the stored pivot order untouched for the
   next healthy solve. *)
let reanalyse t a =
  analyse t a;
  let an = Option.get t.analysis in
  ignore (refactor an a ~nnz:(nnz t) ~strict:true : bool);
  record_refactor t ~reused:false

let stale t a =
  count t c_reanalyses;
  reanalyse t a

let factor t a =
  if Array.length a < nnz t then invalid_arg "Sparse_lu.factor: value count";
  match t.analysis with
  | None ->
    check_finite t a;
    count t c_analyses;
    reanalyse t a
  | Some an -> (
    match refactor an a ~nnz:(nnz t) ~strict:false with
    | false -> record_refactor t ~reused:true
    | true ->
      (* a small pivot is not a wrong pivot: on long holds C/dt sinks
         below the guard while the stored order is still the
         partial-pivot order. Revalidate it exactly before paying for a
         dense analysis that would pick the same permutation again. *)
      check_finite t a;
      if unique_pivots an then begin
        count t c_revalidations;
        record_refactor t ~reused:true
      end
      else stale t a
    | exception Stale ->
      check_finite t a;
      stale t a)

let perm t = Option.map (fun an -> Array.copy an.perm) t.analysis

type schedule = { fill_in : int; multipliers : int; updates : int }

let schedule t =
  Option.map
    (fun an ->
      {
        fill_in = Array.length an.lu - nnz t;
        multipliers = Array.length an.mult_slot;
        updates = Array.length an.upd_dst;
      })
    t.analysis

let solve t ~scratch b =
  let an =
    match t.analysis with
    | Some an -> an
    | None -> invalid_arg "Sparse_lu.solve: no factorization"
  in
  let n = t.n and lu = an.lu in
  assert (Array.length b = n);
  assert (Array.length scratch >= n);
  let perm = an.perm in
  for i = 0 to n - 1 do
    Array.unsafe_set scratch i (b.(Array.unsafe_get perm i))
  done;
  (* forward substitution: L has unit diagonal *)
  let lower_slot = an.lower_slot and lower_col = an.lower_col in
  for i = 1 to n - 1 do
    let l0 = an.lower_start.(i) and l1 = an.lower_start.(i + 1) in
    if l1 > l0 then begin
      let s = ref scratch.(i) in
      for l = l0 to l1 - 1 do
        s :=
          !s
          -. Array.unsafe_get lu (Array.unsafe_get lower_slot l)
             *. Array.unsafe_get scratch (Array.unsafe_get lower_col l)
      done;
      scratch.(i) <- !s
    end
  done;
  (* back substitution *)
  let upper_slot = an.upper_slot and upper_col = an.upper_col in
  for i = n - 1 downto 0 do
    let s = ref scratch.(i) in
    for u = an.upper_start.(i) to an.upper_start.(i + 1) - 1 do
      s :=
        !s
        -. Array.unsafe_get lu (Array.unsafe_get upper_slot u)
           *. Array.unsafe_get scratch (Array.unsafe_get upper_col u)
    done;
    scratch.(i) <- !s /. lu.(an.diag.(i))
  done;
  (* [scratch] solves A·Q y = b; x = Q y *)
  let order = t.order in
  for k = 0 to n - 1 do
    b.(Array.unsafe_get order k) <- Array.unsafe_get scratch k
  done

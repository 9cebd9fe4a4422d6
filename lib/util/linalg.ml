type matrix = float array array

exception Singular of { row : int; pivot : float }

let () =
  Printexc.register_printer (function
    | Singular { row; pivot } ->
      Some
        (Printf.sprintf "Linalg.Singular { row = %d; pivot = %.6g }" row pivot)
    | _ -> None)

let create n m = Array.make_matrix n m 0.0

let copy a = Array.map Array.copy a

let dims a =
  let n = Array.length a in
  if n = 0 then (0, 0) else (n, Array.length a.(0))

let identity n =
  let a = create n n in
  for i = 0 to n - 1 do
    a.(i).(i) <- 1.0
  done;
  a

let mat_vec a x =
  let n, m = dims a in
  assert (Array.length x = m);
  Array.init n (fun i ->
      let row = a.(i) in
      let s = ref 0.0 in
      for j = 0 to m - 1 do
        s := !s +. (row.(j) *. x.(j))
      done;
      !s)

let mat_mul a b =
  let n, k = dims a in
  let k', m = dims b in
  assert (k = k');
  let c = create n m in
  for i = 0 to n - 1 do
    for p = 0 to k - 1 do
      let aip = a.(i).(p) in
      if aip <> 0.0 then
        for j = 0 to m - 1 do
          c.(i).(j) <- c.(i).(j) +. (aip *. b.(p).(j))
        done
    done
  done;
  c

type lu = { lu : matrix; perm : int array; thresholds : float array }

(* Doolittle LU with partial pivoting, factoring [lu] destructively.
   [perm] must come in as the identity permutation; [thresholds] (one
   float per row, contents ignored) comes out holding the rank threshold
   each pivot was judged against.

   A pivot below its threshold is cancellation residue, not signal, and
   dividing through it would fill the factors with garbage that only
   surfaces as a wrong answer much later. The threshold is relative,
   1e-14 times the pivot row's own scale, capped at the matrix's largest
   entry: MNA matrices carry gmin entries (~1e-12 S) that are legitimate
   pivots against an O(1) scale, and at t = 0 a quasi-static step puts
   capacitor companions C/dt near 1e5 S beside a high-resistance open
   whose node row is only 1/R + gmin (~1e-9) — well posed, and judged
   against its own row rather than the capacitors'. A 1e-16 residue of
   an O(1) cancellation is still rejected, because a row's scale also
   grows with what elimination subtracts from it: an update by pivot
   row k with multiplier f subtracts terms no larger than
   |f| * scale(k), so a row of tiny entries filled by O(1) updates has
   an O(1) scale. An absolute 1e-300 floor still covers the
   all-tiny-matrix corner.

   Pivot choice (the column maximum) never reads the threshold, and the
   threshold is never above the matrix-scale one, so any finite matrix
   that rule accepts gets the same permutation and the same arithmetic.
   A non-finite entry is rejected up front, as {!Sparse_lu} does: an
   infinite entry made every finite pivot fail the matrix-scale rule,
   and a finite row scale must not let such a matrix through. *)
let factor_loop lu perm ~thresholds n =
  let global = ref 0.0 in
  for i = 0 to n - 1 do
    let row = lu.(i) and s = ref 0.0 in
    for j = 0 to n - 1 do
      let v = row.(j) in
      if not (v -. v = 0.0) then raise (Singular { row = i; pivot = v });
      if Float.abs v > !s then s := Float.abs v
    done;
    thresholds.(i) <- !s;
    if !s > !global then global := !s
  done;
  (* [thresholds.(i)] holds row i's scale until step i overwrites it
     with the threshold its pivot was judged against *)
  let scale = thresholds in
  for k = 0 to n - 1 do
    let pivot = ref k in
    let best = ref (Float.abs lu.(k).(k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs lu.(i).(k) in
      if v > !best then begin
        best := v;
        pivot := i
      end
    done;
    let row_scale = scale.(!pivot) in
    let threshold = Float.max 1e-300 (1e-14 *. Float.min !global row_scale) in
    if not (!best >= threshold) then
      (* [not >=] rather than [<] so a NaN pivot column is also caught *)
      raise (Singular { row = k; pivot = !best });
    if !pivot <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      scale.(!pivot) <- scale.(k);
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tp
    end;
    thresholds.(k) <- threshold;
    let pkk = lu.(k).(k) in
    for i = k + 1 to n - 1 do
      let f = lu.(i).(k) /. pkk in
      lu.(i).(k) <- f;
      if f <> 0.0 then begin
        let ri = lu.(i) and rk = lu.(k) in
        for j = k + 1 to n - 1 do
          ri.(j) <- ri.(j) -. (f *. rk.(j))
        done;
        let grown = Float.abs f *. row_scale in
        if grown > scale.(i) then scale.(i) <- grown
      end
    done
  done

let lu_perm { perm; _ } = perm

let lu_thresholds { thresholds; _ } = thresholds

let lu_factor a =
  let n, m = dims a in
  assert (n = m);
  let lu = copy a in
  let perm = Array.init n (fun i -> i) in
  let thresholds = Array.make n 0.0 in
  factor_loop lu perm ~thresholds n;
  { lu; perm; thresholds }

let lu_factor_in_place a ~perm =
  let n, m = dims a in
  assert (n = m);
  assert (Array.length perm = n);
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let thresholds = Array.make n 0.0 in
  factor_loop a perm ~thresholds n;
  { lu = a; perm; thresholds }

(* forward/back substitution over a dense LU, solving destructively
   into [x] (which must already hold the permuted RHS) *)
let substitute lu x n =
  (* forward substitution: L has unit diagonal *)
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    let row = lu.(i) in
    for j = 0 to i - 1 do
      s := !s -. (row.(j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  (* back substitution *)
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    let row = lu.(i) in
    for j = i + 1 to n - 1 do
      s := !s -. (row.(j) *. x.(j))
    done;
    x.(i) <- !s /. row.(i)
  done

let lu_solve_in_place { lu; perm; _ } ~scratch b =
  let n = Array.length perm in
  assert (Array.length b = n);
  assert (Array.length scratch >= n);
  for i = 0 to n - 1 do
    scratch.(i) <- b.(perm.(i))
  done;
  substitute lu scratch n;
  Array.blit scratch 0 b 0 n

let lu_solve { lu; perm; _ } b =
  let n = Array.length perm in
  assert (Array.length b = n);
  let x = Array.init n (fun i -> b.(perm.(i))) in
  substitute lu x n;
  x

let solve a b = lu_solve (lu_factor a) b

let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0.0 x

let norm_2 x = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x)

let sub x y = Array.init (Array.length x) (fun i -> x.(i) -. y.(i))

let residual a x b = sub (mat_vec a x) b

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

type lu = { lu : matrix; perm : int array }

(* Doolittle LU with partial pivoting, factoring [lu] destructively.
   [perm] must come in as the identity permutation.

   The pivot threshold is relative to the matrix's largest entry at
   factor time: a pivot below [scale * 1e-14] is cancellation residue,
   not signal, and dividing through it would fill the factors with
   garbage that only surfaces as a wrong answer much later. The
   relative scale matters — MNA matrices carry gmin entries (~1e-12 S)
   that are legitimate pivots against an O(1) scale, while a 1e-16
   residue of an O(1) cancellation is not. An absolute 1e-300 floor
   still covers the all-tiny-matrix corner. *)
let pivot_threshold lu n =
  let scale = ref 0.0 in
  for i = 0 to n - 1 do
    let row = lu.(i) in
    for j = 0 to n - 1 do
      let v = Float.abs row.(j) in
      if v > !scale then scale := v
    done
  done;
  Float.max 1e-300 (!scale *. 1e-14)

let factor_loop lu perm n =
  let threshold = pivot_threshold lu n in
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
    if not (!best >= threshold) then
      (* [not >=] rather than [<] so a NaN pivot column is also caught *)
      raise (Singular { row = k; pivot = !best });
    if !pivot <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tp
    end;
    let pkk = lu.(k).(k) in
    for i = k + 1 to n - 1 do
      let f = lu.(i).(k) /. pkk in
      lu.(i).(k) <- f;
      if f <> 0.0 then begin
        let ri = lu.(i) and rk = lu.(k) in
        for j = k + 1 to n - 1 do
          ri.(j) <- ri.(j) -. (f *. rk.(j))
        done
      end
    done
  done

let lu_perm { perm; _ } = perm

let lu_factor a =
  let n, m = dims a in
  assert (n = m);
  let lu = copy a in
  let perm = Array.init n (fun i -> i) in
  factor_loop lu perm n;
  { lu; perm }

let lu_factor_in_place a ~perm =
  let n, m = dims a in
  assert (n = m);
  assert (Array.length perm = n);
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  factor_loop a perm n;
  { lu = a; perm }

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

let lu_solve_in_place { lu; perm } ~scratch b =
  let n = Array.length perm in
  assert (Array.length b = n);
  assert (Array.length scratch >= n);
  for i = 0 to n - 1 do
    scratch.(i) <- b.(perm.(i))
  done;
  substitute lu scratch n;
  Array.blit scratch 0 b 0 n

let lu_solve { lu; perm } b =
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

(* Unit and property tests for the numerics substrate. *)

module L = Dramstress_util.Linalg
module B = Dramstress_util.Bisect
module I = Dramstress_util.Interp
module G = Dramstress_util.Grid
module S = Dramstress_util.Stats
module U = Dramstress_util.Units

let feq ?(eps = 1e-9) a b = Float.abs (a -. b) <= eps *. (1.0 +. Float.abs b)

let check_float ?(eps = 1e-9) msg expected actual =
  if not (feq ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

(* ------------------------------------------------------------------ *)
(* Linalg                                                              *)
(* ------------------------------------------------------------------ *)

let test_lu_identity () =
  let a = L.identity 5 in
  let b = [| 1.0; -2.0; 3.5; 0.0; 7.25 |] in
  let x = L.solve a b in
  Array.iteri (fun i v -> check_float "identity solve" b.(i) v) x

let test_lu_known_system () =
  (* 2x + y = 5 ; x + 3y = 10  ->  x = 1, y = 3 *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = L.solve a [| 5.0; 10.0 |] in
  check_float "x" 1.0 x.(0);
  check_float "y" 3.0 x.(1)

let test_lu_pivoting () =
  (* zero leading pivot forces a row swap *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = L.solve a [| 2.0; 3.0 |] in
  check_float "x" 3.0 x.(0);
  check_float "y" 2.0 x.(1)

let test_lu_singular () =
  let a = [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  match L.lu_factor a with
  | _ -> Alcotest.fail "expected Singular"
  | exception L.Singular { row; pivot } ->
    Alcotest.(check int) "row" 1 row;
    Alcotest.(check bool) "tiny pivot" true (Float.abs pivot < 1e-9)

let test_lu_rank_deficient_residue () =
  (* row 2 = row 0 + row 1: elimination leaves only cancellation residue
     in the last pivot. The old absolute-epsilon test let the residue
     through and divided by ~1e-16 — the unguarded-division bug; the
     relative threshold must reject it. *)
  let a =
    [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |]; [| 5.0; 7.0; 9.0 |] |]
  in
  (match L.lu_factor a with
  | _ -> Alcotest.fail "expected Singular on rank-2 matrix"
  | exception L.Singular { row; _ } -> Alcotest.(check int) "last row" 2 row);
  (* scaled copies must be caught identically: the threshold is relative *)
  let scaled = Array.map (Array.map (fun v -> v *. 1e9)) a in
  match L.lu_factor scaled with
  | _ -> Alcotest.fail "expected Singular on scaled rank-2 matrix"
  | exception L.Singular _ -> ()

let test_lu_near_singular_ok () =
  (* a gmin-conditioned system: pivots differ by 12 orders of magnitude
     but the matrix is genuinely invertible and must still solve *)
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 1e-12 |] |] in
  let x = L.solve a [| 1.0; 2e-12 |] in
  check_float "x0" 1.0 x.(0);
  check_float "x1" 2.0 x.(1)

let test_lu_nan_pivot_rejected () =
  (* a NaN entry must surface as Singular, not as NaN solutions *)
  let a = [| [| Float.nan; 1.0 |]; [| 1.0; 1.0 |] |] in
  match L.solve a [| 1.0; 1.0 |] with
  | x ->
    if Array.exists (fun v -> not (Float.is_finite v)) x then
      Alcotest.fail "NaN leaked into the solution"
  | exception L.Singular _ -> ()

(* the t = 0 quasi-static system of a high-resistance open: capacitor
   companions C/dt0 near 3e5 S beside the open's node row, tied only by
   1/R + gmin (~1e-10 S at R = 1e10). The row is well posed, but its
   pivot sits below 1e-14 of the matrix scale (3e-9). *)
let open_at_t0 =
  [| [| 3e5 +. 1e-10; -1e-10; 0.0 |];
     [| -1e-10; 1e-10 +. 1e-12; -1e-12 |];
     [| 0.0; -1e-12; 3e5 +. 1e-12 |] |]

let with_entry m i j v =
  let m = L.copy m in
  m.(i).(j) <- v;
  m

let zero_row m i =
  Array.mapi (fun k r -> if k = i then Array.make (Array.length r) 0.0 else r) m

(* systems the rank test must still reject, beside the open above *)
let rank_rejects =
  [ ("zeroed row", zero_row open_at_t0 1);
    ( "O(1) cancellation residue",
      [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |]; [| 5.0; 7.0; 9.0 |] |] );
    (* a row of ~1e-9 entries that elimination fills with O(1) values
       (row 1 minus row 0) and then cancels to a 1e-16 residue against
       row 2: its original entries alone would pass the residue *)
    ( "tiny row filled by O(1) updates",
      [| [| 1e-9; 0.1; 0.3 |]; [| 1e-9; 1e-9; 3e-9 |];
         [| 0.0; 0.7; 2.1 |] |] );
    ("NaN entry", with_entry open_at_t0 1 2 Float.nan);
    ("infinite entry", with_entry open_at_t0 2 2 Float.infinity) ]

let test_lu_row_scaled_threshold () =
  let d = L.lu_factor open_at_t0 in
  Alcotest.(check (array int)) "diagonal pivots" [| 0; 1; 2 |] (L.lu_perm d);
  let x = L.lu_solve d [| 1.0; 1e-10; 1.0 |] in
  let r = L.residual open_at_t0 x [| 1.0; 1e-10; 1.0 |] in
  Alcotest.(check bool) "tiny row solved to its own scale" true
    (Float.abs r.(1) < 1e-22);
  List.iter
    (fun (name, m) ->
      match L.lu_factor m with
      | _ -> Alcotest.failf "%s: expected Singular" name
      | exception L.Singular _ -> ())
    rank_rejects

(* the matrix-scale rank rule that the row-scaled one refines, as a
   reference: partial pivoting with every pivot judged against 1e-14 of
   the largest entry; the factors and permutation, or [None] *)
let global_rule_factor a =
  let n = Array.length a in
  let lu = L.copy a and perm = Array.init n Fun.id in
  let scale =
    Array.fold_left
      (Array.fold_left (fun m v -> Float.max m (Float.abs v)))
      0.0 lu
  in
  let threshold = Float.max 1e-300 (scale *. 1e-14) in
  match
    for k = 0 to n - 1 do
      let p = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs lu.(i).(k) > Float.abs lu.(!p).(k) then p := i
      done;
      if not (Float.abs lu.(!p).(k) >= threshold) then raise Exit;
      let r = lu.(k) and q = perm.(k) in
      lu.(k) <- lu.(!p);
      lu.(!p) <- r;
      perm.(k) <- perm.(!p);
      perm.(!p) <- q;
      for i = k + 1 to n - 1 do
        let f = lu.(i).(k) /. lu.(k).(k) in
        lu.(i).(k) <- f;
        if f <> 0.0 then
          for j = k + 1 to n - 1 do
            lu.(i).(j) <- lu.(i).(j) -. (f *. lu.(k).(j))
          done
      done
    done
  with
  | () -> Some (perm, lu)
  | exception Exit -> None

(* MNA-like systems: entries in [-1, 1] with exact zeros, scaled by a
   row and a column factor each between 1e-12 and 1e6, and sometimes a
   row that is the sum of two others, so elimination meets cancellation
   residues *)
let gen_scaled_matrix st =
  let n = 1 + Random.State.int st 8 in
  let factor () = 10.0 ** float_of_int (Random.State.int st 19 - 12) in
  let rs = Array.init n (fun _ -> factor ())
  and cs = Array.init n (fun _ -> factor ()) in
  let m =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i <> j && Random.State.int st 10 < 4 then 0.0
            else (Random.State.float st 2.0 -. 1.0) *. rs.(i) *. cs.(j)))
  in
  if n >= 3 && Random.State.bool st then begin
    let pick () = Random.State.int st n in
    m.(pick ()) <- Array.map2 ( +. ) m.(pick ()) m.(pick ())
  end;
  m

let print_matrix m =
  String.concat "\n"
    (Array.to_list
       (Array.map
          (fun r ->
            String.concat " "
              (Array.to_list (Array.map (Printf.sprintf "%h") r)))
          m))

let prop_lu_row_scale_keeps_accepted =
  QCheck.Test.make ~count:2000
    ~name:"lu: a matrix-scale-accepted system factors bit for bit as before"
    (QCheck.make ~print:print_matrix gen_scaled_matrix)
    (fun a ->
      match global_rule_factor a with
      | None -> true
      | Some (perm, factors) ->
        let work = L.copy a and p = Array.make (Array.length a) 0 in
        ignore (L.lu_factor_in_place work ~perm:p);
        p = perm
        && Array.for_all2
             (Array.for_all2 (fun x y ->
                  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)))
             work factors)

let test_lu_does_not_mutate () =
  let a = [| [| 4.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let saved = L.copy a in
  ignore (L.solve a [| 1.0; 2.0 |]);
  Array.iteri
    (fun i row ->
      Array.iteri (fun j v -> check_float "a unchanged" saved.(i).(j) v) row)
    a

let test_mat_vec_mul () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let v = L.mat_vec a [| 1.0; 1.0 |] in
  check_float "row0" 3.0 v.(0);
  check_float "row1" 7.0 v.(1);
  let c = L.mat_mul a (L.identity 2) in
  check_float "mat_mul id" 4.0 c.(1).(1)

let test_norms () =
  check_float "inf" 3.0 (L.norm_inf [| 1.0; -3.0; 2.0 |]);
  check_float "l2" 5.0 (L.norm_2 [| 3.0; 4.0 |]);
  check_float "inf empty" 0.0 (L.norm_inf [||])

let prop_lu_roundtrip =
  QCheck.Test.make ~count:100 ~name:"lu: A x = b residual is small"
    QCheck.(
      pair (int_range 1 8)
        (pair (list_of_size (Gen.return 64) (float_range (-10.0) 10.0))
           (list_of_size (Gen.return 8) (float_range (-10.0) 10.0))))
    (fun (n, (entries, rhs)) ->
      let ent = Array.of_list entries and rv = Array.of_list rhs in
      let a =
        Array.init n (fun i ->
            Array.init n (fun j ->
                let v = ent.((i * 8) + j) in
                if i = j then v +. 20.0 else v))
        (* diagonally dominant: never singular *)
      in
      let b = Array.init n (fun i -> rv.(i)) in
      let x = L.solve a b in
      L.norm_inf (L.residual a x b) < 1e-8)

(* ------------------------------------------------------------------ *)
(* Bisect                                                              *)
(* ------------------------------------------------------------------ *)

let test_threshold_no_bracket () =
  Alcotest.check_raises "no bracket" B.No_bracket (fun () ->
      ignore (B.threshold (fun x -> x > 2.0) (-1.0) 1.0))

let test_threshold_updown () =
  (* predicate true below 2.0 *)
  let x = B.threshold (fun x -> x < 2.0) 0.0 10.0 in
  check_float ~eps:1e-6 "boundary" 2.0 x;
  (* predicate false below 2.0 *)
  let x = B.threshold (fun x -> x >= 2.0) 0.0 10.0 in
  check_float ~eps:1e-6 "boundary" 2.0 x

let test_threshold_log () =
  let x = B.threshold_log (fun r -> r < 2.0e5) 1e3 1e7 in
  if Float.abs (x -. 2.0e5) > 0.01 *. 2.0e5 then
    Alcotest.failf "log threshold: got %g" x

let prop_threshold_finds_boundary =
  QCheck.Test.make ~count:200 ~name:"threshold: recovers the cut point"
    QCheck.(float_range 0.1 9.9)
    (fun cut ->
      let x = B.threshold (fun v -> v < cut) 0.0 10.0 in
      Float.abs (x -. cut) < 1e-5)

(* ------------------------------------------------------------------ *)
(* Interp                                                              *)
(* ------------------------------------------------------------------ *)

let test_interp_eval () =
  let c = I.of_points [ (0.0, 0.0); (1.0, 2.0); (2.0, 0.0) ] in
  check_float "mid" 1.0 (I.eval c 0.5);
  check_float "peak" 2.0 (I.eval c 1.0);
  check_float "clamp lo" 0.0 (I.eval c (-5.0));
  check_float "clamp hi" 0.0 (I.eval c 7.0)

let test_interp_unsorted_input () =
  let c = I.of_points [ (2.0, 4.0); (0.0, 0.0); (1.0, 1.0) ] in
  check_float "sorted eval" 2.5 (I.eval c 1.5)

let test_interp_duplicate () =
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Interp.of_points: duplicate abscissa") (fun () ->
      ignore (I.of_points [ (0.0, 1.0); (0.0, 2.0) ]))

let test_interp_crossings () =
  let c = I.of_points [ (0.0, 0.0); (1.0, 2.0); (2.0, 0.0) ] in
  match I.crossings c 1.0 with
  | [ a; b ] ->
    check_float "first" 0.5 a;
    check_float "second" 1.5 b
  | other -> Alcotest.failf "expected 2 crossings, got %d" (List.length other)

let test_interp_no_crossing () =
  let c = I.of_points [ (0.0, 0.0); (1.0, 1.0) ] in
  Alcotest.(check (option (float 1e-9))) "none" None (I.first_crossing c 5.0)

let test_interp_intersections () =
  let a = I.of_points [ (0.0, 0.0); (10.0, 10.0) ] in
  let b = I.of_points [ (0.0, 10.0); (10.0, 0.0) ] in
  match I.intersections a b with
  | [ x ] -> check_float ~eps:1e-6 "cross at 5" 5.0 x
  | other -> Alcotest.failf "expected 1 intersection, got %d" (List.length other)

let test_interp_map_y () =
  let c = I.map_y (fun y -> 2.0 *. y) (I.of_points [ (0.0, 1.0); (1.0, 3.0) ]) in
  check_float "scaled" 4.0 (I.eval c 0.5)

(* ------------------------------------------------------------------ *)
(* Grid                                                                *)
(* ------------------------------------------------------------------ *)

let test_linspace () =
  (match G.linspace 0.0 1.0 5 with
  | [ a; b; c; d; e ] ->
    check_float "a" 0.0 a;
    check_float "b" 0.25 b;
    check_float "c" 0.5 c;
    check_float "d" 0.75 d;
    check_float "e" 1.0 e
  | _ -> Alcotest.fail "expected 5 points");
  Alcotest.(check (list (float 1e-12))) "single" [ 3.0 ] (G.linspace 3.0 9.0 1)

let test_logspace () =
  match G.logspace 1.0 100.0 3 with
  | [ a; b; c ] ->
    check_float "a" 1.0 a;
    check_float ~eps:1e-9 "b" 10.0 b;
    check_float ~eps:1e-9 "c" 100.0 c
  | _ -> Alcotest.fail "expected 3 points"

let test_arange () =
  Alcotest.(check (list (float 1e-12)))
    "arange" [ 0.0; 0.5; 1.0; 1.5 ] (G.arange 0.0 2.0 0.5)

let test_decades () =
  let pts = G.decades 1e3 1e6 4 in
  check_float "first" 1e3 (List.hd pts);
  check_float ~eps:1e-9 "last" 1e6 (List.nth pts (List.length pts - 1));
  Alcotest.(check bool) "enough points" true (List.length pts >= 12)

let prop_logspace_monotone =
  QCheck.Test.make ~count:100 ~name:"logspace is strictly increasing"
    QCheck.(pair (float_range 0.001 10.0) (int_range 2 50))
    (fun (lo, n) ->
      let pts = G.logspace lo (lo *. 1000.0) n in
      let rec mono = function
        | a :: (b :: _ as rest) -> a < b && mono rest
        | [ _ ] | [] -> true
      in
      mono pts && List.length pts = n)

(* ------------------------------------------------------------------ *)
(* Stats / Units                                                       *)
(* ------------------------------------------------------------------ *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (S.mean xs);
  check_float "var" 1.25 (S.variance xs);
  check_float "median" 2.5 (S.median xs);
  let lo, hi = S.min_max xs in
  check_float "min" 1.0 lo;
  check_float "max" 4.0 hi;
  check_float "q0" 1.0 (S.quantile 0.0 xs);
  check_float "q1" 4.0 (S.quantile 1.0 xs)

let test_stats_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Stats.mean: empty")
    (fun () -> ignore (S.mean [||]))

let test_units () =
  check_float "kilo" 2.0e5 (U.kilo 200.0);
  check_float "nano" 6.0e-8 (U.nano 60.0);
  check_float "c2k" 300.15 (U.celsius_to_kelvin 27.0);
  check_float "k2c" 27.0 (U.kelvin_to_celsius 300.15);
  check_float ~eps:1e-4 "vt at 300K" 0.02585 (U.thermal_voltage 300.0);
  Alcotest.(check string) "si 200k" "200 k" (U.si_string 2.0e5);
  Alcotest.(check string) "si 0" "0" (U.si_string 0.0)

(* ------------------------------------------------------------------ *)
(* Csvout / Ascii_plot                                                 *)
(* ------------------------------------------------------------------ *)

module Csv = Dramstress_util.Csvout
module Plot = Dramstress_util.Ascii_plot

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    if i + nn > nh then false
    else if String.sub haystack i nn = needle then true
    else scan (i + 1)
  in
  scan 0

let test_csv_basic () =
  let out = Csv.to_string ~header:[ "a"; "b" ] [ [ "1"; "2" ]; [ "3"; "4" ] ] in
  Alcotest.(check string) "csv" "a,b\n1,2\n3,4\n" out

let test_csv_quoting () =
  let out = Csv.to_string ~header:[ "x" ] [ [ "has,comma" ]; [ "has\"quote" ] ] in
  Alcotest.(check bool) "comma quoted" true (contains out "\"has,comma\"");
  Alcotest.(check bool) "quote doubled" true (contains out "\"has\"\"quote\"")

let test_csv_floats () =
  let out = Csv.of_floats ~header:[ "t"; "v" ] [ [ 1e-9; 2.4 ] ] in
  Alcotest.(check bool) "formatted" true (contains out "1e-09" && contains out "2.4")

let test_plot_renders_series () =
  let s = Plot.series "curve" [ (0.0, 0.0); (1.0, 1.0); (2.0, 4.0) ] in
  let out = Plot.render ~title:"parabola" [ s ] in
  Alcotest.(check bool) "title" true (contains out "parabola");
  Alcotest.(check bool) "legend" true (contains out "[c] curve");
  Alcotest.(check bool) "glyphs placed" true (contains out "c")

let test_plot_log_axis_and_hlines () =
  let s = Plot.series ~glyph:'#' "r" [ (1e3, 1.0); (1e6, 2.0) ] in
  let out =
    Plot.render ~x_axis:Plot.Log10 ~hlines:[ ("level", 1.5) ] ~title:"log"
      [ s ]
  in
  Alcotest.(check bool) "hline legend" true (contains out "level=1.5");
  Alcotest.(check bool) "dashes drawn" true (contains out "- -")

let test_plot_empty () =
  let out = Plot.render ~title:"none" [ Plot.series "x" [] ] in
  Alcotest.(check bool) "graceful" true (contains out "(no data)")

let test_plot_grid () =
  let out =
    Plot.render_grid ~title:"g" ~rows:("y", 2) ~cols:("x", 3)
      ~row_label:(fun r -> string_of_int r)
      ~col_label:(fun c -> string_of_int c)
      (fun r c -> if (r + c) mod 2 = 0 then '.' else 'X')
  in
  Alcotest.(check bool) "cells" true (contains out ". X .");
  Alcotest.(check bool) "axis names" true (contains out "rows: y")

(* ------------------------------------------------------------------ *)
(* In-place LU                                                         *)
(* ------------------------------------------------------------------ *)

let test_lu_in_place_matches_solve () =
  let a = [| [| 4.0; 1.0; 0.5 |]; [| 1.0; 3.0; -1.0 |]; [| 0.0; 2.0; 5.0 |] |] in
  let b = [| 1.0; -2.0; 4.0 |] in
  let expected = L.solve a b in
  let work = L.copy a in
  let perm = Array.make 3 0 in
  let scratch = Array.make 3 0.0 in
  let fact = L.lu_factor_in_place work ~perm in
  let x = Array.copy b in
  L.lu_solve_in_place fact ~scratch x;
  Array.iteri (fun i v -> check_float "in-place solve" expected.(i) v) x

let test_lu_in_place_pivoting () =
  let work = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let perm = Array.make 2 0 in
  let scratch = Array.make 2 0.0 in
  let fact = L.lu_factor_in_place work ~perm in
  let x = [| 2.0; 3.0 |] in
  L.lu_solve_in_place fact ~scratch x;
  check_float "x" 3.0 x.(0);
  check_float "y" 2.0 x.(1)

let test_lu_in_place_reuse () =
  (* the same perm/scratch buffers serve successive factorizations, as in
     the Newton iteration hot loop *)
  let perm = Array.make 2 0 in
  let scratch = Array.make 2 0.0 in
  List.iter
    (fun scale ->
      let work = [| [| 2.0 *. scale; 1.0 |]; [| 1.0; 3.0 |] |] in
      let reference = L.solve work [| 5.0; 10.0 |] in
      let x = [| 5.0; 10.0 |] in
      L.lu_solve_in_place (L.lu_factor_in_place work ~perm) ~scratch x;
      Array.iteri (fun i v -> check_float "reuse" reference.(i) v) x)
    [ 1.0; 2.0; 0.5 ]

(* ------------------------------------------------------------------ *)
(* Interp.of_sorted_arrays                                             *)
(* ------------------------------------------------------------------ *)

let test_interp_of_sorted_arrays () =
  let xs = [| 0.0; 1.0; 2.0 |] and ys = [| 0.0; 10.0; 0.0 |] in
  let c = I.of_sorted_arrays xs ys in
  check_float "midpoint" 5.0 (I.eval c 0.5);
  check_float "clamp left" 0.0 (I.eval c (-1.0));
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Interp.of_sorted_arrays: abscissae must strictly increase")
    (fun () -> ignore (I.of_sorted_arrays [| 1.0; 0.0 |] [| 0.0; 0.0 |]))

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

module Lru = Dramstress_util.Lru

let test_lru_basic () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Alcotest.(check (option int)) "a" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "b" (Some 2) (Lru.find c "b");
  Alcotest.(check (option int)) "miss" None (Lru.find c "z");
  Alcotest.(check int) "no eviction within capacity" 0 (Lru.evictions c)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 () in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  (* touch "a" so "b" is the least recently used *)
  ignore (Lru.find c "a");
  Lru.add c "c" 3;
  Alcotest.(check (option int)) "a survives" (Some 1) (Lru.find c "a");
  Alcotest.(check (option int)) "b evicted" None (Lru.find c "b");
  Alcotest.(check (option int)) "c present" (Some 3) (Lru.find c "c");
  Alcotest.(check int) "bounded" 2 (Lru.length c)

let test_lru_replace_and_clear () =
  let c = Lru.create ~capacity:4 () in
  Lru.add c 1 "one";
  Lru.add c 1 "uno";
  Alcotest.(check (option string)) "replaced" (Some "uno") (Lru.find c 1);
  Alcotest.(check int) "no duplicate entry" 1 (Lru.length c);
  Lru.clear c;
  Alcotest.(check int) "cleared" 0 (Lru.length c);
  Alcotest.(check (option string)) "gone" None (Lru.find c 1)

(* ------------------------------------------------------------------ *)
(* Par                                                                 *)
(* ------------------------------------------------------------------ *)

module Par = Dramstress_util.Par

(* order-sensitive workload: result depends on the element AND its
   position, so any reordering or index mix-up in the runner shows up *)
let par_workload xs = List.mapi (fun i x -> (i, x * x, string_of_int x)) xs

let test_par_matches_list_map () =
  let xs = List.init 57 (fun i -> i - 7) in
  let expected = par_workload xs in
  let via_par =
    Par.parallel_map (fun x -> x)
      (List.mapi (fun i x -> (i, x * x, string_of_int x)) xs)
  in
  Alcotest.(check int) "length" (List.length expected) (List.length via_par);
  List.iter2
    (fun (i, a, s) (i', a', s') ->
      Alcotest.(check int) "index" i i';
      Alcotest.(check int) "value" a a';
      Alcotest.(check string) "string" s s')
    expected via_par;
  (* and through the parallel path proper, at several job counts *)
  List.iter
    (fun jobs ->
      let got =
        Par.parallel_map ~jobs (fun x -> (x, x * x, string_of_int x)) xs
      in
      let want = List.map (fun x -> (x, x * x, string_of_int x)) xs in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d preserves order" jobs)
        true (got = want))
    [ 1; 2; 4; 8 ]

let test_par_exception_propagates () =
  let boom = Failure "boom" in
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "exception at jobs=%d" jobs)
        boom
        (fun () ->
          ignore
            (Par.parallel_map ~jobs
               (fun x -> if x = 13 then raise boom else x)
               (List.init 20 Fun.id))))
    [ 1; 4 ]

let test_par_empty_and_singleton () =
  Alcotest.(check (list int)) "empty" [] (Par.parallel_map ~jobs:4 succ []);
  Alcotest.(check (list int)) "singleton" [ 2 ]
    (Par.parallel_map ~jobs:4 succ [ 1 ])

let test_par_default_jobs () =
  Alcotest.(check bool) "at least one domain" true (Par.resolve_jobs () >= 1)

let test_par_chunks () =
  let check_split ~size xs =
    let cs = Par.chunks ~size xs in
    Alcotest.(check (list int))
      (Printf.sprintf "concat inverts at size %d" size)
      xs (List.concat cs);
    List.iteri
      (fun i c ->
        let len = List.length c in
        Alcotest.(check bool) "chunk non-empty" true (len > 0);
        Alcotest.(check bool) "chunk within size" true (len <= size);
        (* every chunk but the last is full *)
        if i < List.length cs - 1 then
          Alcotest.(check int) "interior chunk full" size len)
      cs
  in
  List.iter
    (fun size ->
      check_split ~size [];
      check_split ~size (List.init 1 Fun.id);
      check_split ~size (List.init 16 Fun.id);
      check_split ~size (List.init 17 Fun.id))
    [ 1; 3; 16; 100 ];
  Alcotest.check_raises "size 0 rejected"
    (Invalid_argument "Par.chunks: size < 1") (fun () ->
      ignore (Par.chunks ~size:0 [ 1 ]))

let test_resolve_lanes () =
  (* same precedence and degradation contract as resolve_jobs, on the
     DRAMSTRESS_LANES variable *)
  let with_env v f =
    let old = Sys.getenv_opt "DRAMSTRESS_LANES" in
    Unix.putenv "DRAMSTRESS_LANES" v;
    Fun.protect f ~finally:(fun () ->
        Unix.putenv "DRAMSTRESS_LANES" (Option.value old ~default:""))
  in
  with_env "5" (fun () ->
      Alcotest.(check int) "env wins over default" 5 (Par.resolve_lanes ());
      Alcotest.(check int) "explicit arg wins over env" 3
        (Par.resolve_lanes ~lanes:3 ());
      Alcotest.(check int) "arg clamped to >= 1" 1
        (Par.resolve_lanes ~lanes:0 ()));
  with_env "junk" (fun () ->
      Alcotest.(check int) "junk env falls back to the default"
        Par.default_lanes (Par.resolve_lanes ()));
  with_env "-2" (fun () ->
      Alcotest.(check int) "negative env falls back to the default"
        Par.default_lanes (Par.resolve_lanes ()));
  with_env "" (fun () ->
      Alcotest.(check int) "unset env takes the default" Par.default_lanes
        (Par.resolve_lanes ()))

let test_par_first_failure_wins () =
  (* at jobs = 1 the sequential path is deterministic: the FIRST failing
     item's exception is the one re-raised, later failures never run *)
  let exn_of i = Failure (Printf.sprintf "item %d" i) in
  Alcotest.check_raises "first failing item propagates" (exn_of 3) (fun () ->
      ignore
        (Par.parallel_map ~jobs:1
           (fun i -> if i >= 3 then raise (exn_of i) else i)
           (List.init 10 Fun.id)))

let test_par_abandons_after_failure () =
  (* sequential path: items after the failing one are never started *)
  let processed = Atomic.make 0 in
  (try
     ignore
       (Par.parallel_map ~jobs:1
          (fun i ->
            Atomic.incr processed;
            if i = 4 then failwith "stop here";
            i)
          (List.init 20 Fun.id))
   with Failure _ -> ());
  Alcotest.(check int) "items after the failure skipped" 5
    (Atomic.get processed);
  (* parallel path: a failure must not hang the sweep, and at least the
     failing item ran; unstarted tail items may be skipped *)
  let processed = Atomic.make 0 in
  (try
     ignore
       (Par.parallel_map ~jobs:4
          (fun i ->
            Atomic.incr processed;
            if i = 4 then failwith "stop here";
            i)
          (List.init 64 Fun.id))
   with Failure _ -> ());
  let n = Atomic.get processed in
  Alcotest.(check bool)
    (Printf.sprintf "parallel run drained without hanging (%d processed)" n)
    true
    (n >= 1 && n <= 64)

let test_par_backtrace_preserved () =
  (* satellite: worker backtraces survive the cross-domain re-raise.
     Only meaningful when the runtime records backtraces at all. *)
  let was = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect
    ~finally:(fun () -> Printexc.record_backtrace was)
    (fun () ->
      let deep_failure x =
        (* a few frames so the captured trace is non-trivial *)
        let g y = if y > 2 then failwith "deep" else y in
        g (x + 10)
      in
      List.iter
        (fun jobs ->
          match
            Par.parallel_map ~jobs deep_failure (List.init 8 Fun.id)
          with
          | _ -> Alcotest.fail "expected the worker exception"
          | exception Failure _ ->
            let bt = Printexc.get_raw_backtrace () in
            Alcotest.(check bool)
              (Printf.sprintf "non-empty backtrace at jobs=%d" jobs)
              true
              (Printexc.raw_backtrace_length bt > 0))
        [ 1; 4 ])

module Outcome = Dramstress_util.Outcome

let test_par_outcomes_mixed () =
  let xs = List.init 30 Fun.id in
  let f x = if x mod 7 = 3 then failwith (string_of_int x) else x * x in
  List.iter
    (fun jobs ->
      let outs = Par.parallel_map_outcomes ~jobs f xs in
      Alcotest.(check int) "one outcome per item" (List.length xs)
        (List.length outs);
      (* positional: slot i corresponds to input i *)
      List.iteri
        (fun i out ->
          match out with
          | Outcome.Ok v ->
            Alcotest.(check bool) "ok slot" true (i mod 7 <> 3);
            Alcotest.(check int) "payload" (i * i) v
          | Outcome.Failed { point; error; retries } ->
            Alcotest.(check bool) "failed slot" true (i mod 7 = 3);
            Alcotest.(check int) "point is the input" i point;
            Alcotest.(check int) "default retries" 0 retries;
            Alcotest.(check string) "error kept"
              (string_of_int i)
              (match error with Failure m -> m | _ -> "?"))
        outs;
      let oks, fails = Outcome.partition outs in
      Alcotest.(check int) "ok count" 26 (List.length oks);
      Alcotest.(check int) "failure count" 4 (List.length fails);
      Alcotest.(check (list int)) "failures in input order" [ 3; 10; 17; 24 ]
        (List.map (fun f -> f.Outcome.point) fails))
    [ 1; 4 ]

let test_par_outcomes_retries_hook () =
  let outs =
    Par.parallel_map_outcomes ~jobs:1
      ~retries_of:(function Failure m -> int_of_string m | _ -> 0)
      (fun x -> if x = 2 then failwith "5" else x)
      [ 0; 1; 2; 3 ]
  in
  match outs with
  | [ Ok 0; Ok 1; Failed f; Ok 3 ] ->
    Alcotest.(check int) "retries extracted from the exception" 5
      f.Outcome.retries
  | _ -> Alcotest.fail "unexpected outcome shape"

(* ------------------------------------------------------------------ *)
(* Checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

module Ck = Dramstress_util.Checkpoint

let with_ck_file f =
  let path = Filename.temp_file "dramstress_ck" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let test_ck_record_find_roundtrip () =
  with_ck_file @@ fun path ->
  let t = Ck.open_ path in
  let key = Ck.digest_key "point A" in
  Alcotest.(check (option string)) "miss before record" None (Ck.find t key);
  Ck.record t ~key ~descr:"point A" "payload-a";
  Ck.record t ~key:(Ck.digest_key "point B") "payload-b";
  Alcotest.(check (option string)) "hit" (Some "payload-a") (Ck.find t key);
  Alcotest.(check int) "two entries" 2 (Ck.entries t);
  (* duplicate keys: first record wins *)
  Ck.record t ~key "payload-a2";
  Alcotest.(check (option string))
    "first record wins" (Some "payload-a") (Ck.find t key);
  Ck.close t

let test_ck_resume_loads () =
  with_ck_file @@ fun path ->
  let t = Ck.open_ path in
  let k1 = Ck.digest_key "p1" and k2 = Ck.digest_key "p2" in
  Ck.record t ~key:k1 ~descr:"p1" "0x1.8p+1";
  Ck.record t ~key:k2 "second";
  Ck.close t;
  let t = Ck.open_ path in
  Alcotest.(check int) "both loaded" 2 (Ck.entries t);
  Alcotest.(check (option string)) "k1" (Some "0x1.8p+1") (Ck.find t k1);
  Alcotest.(check (option string)) "k2" (Some "second") (Ck.find t k2);
  (* appends land behind the replayed records *)
  let k3 = Ck.digest_key "p3" in
  Ck.record t ~key:k3 "third";
  Ck.close t;
  let t = Ck.open_ path in
  Alcotest.(check int) "append survived" 3 (Ck.entries t);
  Ck.close t

let test_ck_truncated_final_line () =
  with_ck_file @@ fun path ->
  let t = Ck.open_ path in
  let k1 = Ck.digest_key "whole" in
  Ck.record t ~key:k1 "intact";
  Ck.close t;
  (* simulate a kill mid-write: append half a record, no newline *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"key\":\"deadbeef\",\"va";
  close_out oc;
  let t = Ck.open_ path in
  Alcotest.(check int) "only the intact record" 1 (Ck.entries t);
  Alcotest.(check (option string)) "intact survives" (Some "intact")
    (Ck.find t k1);
  Ck.close t

let test_ck_glued_half_record () =
  (* a record cut right after its key, with the next record appended on
     the same line: the cut key must not borrow the next record's value,
     and the complete record behind the cut must still replay *)
  with_ck_file @@ fun path ->
  let k1 = Ck.digest_key "cut" and k2 = Ck.digest_key "whole" in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "{\"engine\":\"e\",\"key\":\"%s\",\"val" k1;
      Printf.fprintf oc "{\"engine\":\"e\",\"key\":\"%s\",\"value\":\"v2\"}\n"
        k2);
  let t = Ck.open_ path in
  Alcotest.(check (option string)) "cut key absent" None (Ck.find t k1);
  Alcotest.(check (option string)) "glued record replays" (Some "v2")
    (Ck.find t k2);
  Alcotest.(check int) "one entry" 1 (Ck.entries t);
  Ck.close t

(* a store address is the digest of a printed key: named fields, [%h]
   floats *)
let printed_key (a, b, c) = Printf.sprintf "k|a=%h,b=%h,c=%h" a b c

let test_ck_fingerprint_stable () =
  let a = Ck.digest_key (printed_key (1.5, 2.0, 3.0)) in
  let b = Ck.digest_key (printed_key (1.5, 2.0, 3.0)) in
  let c = Ck.digest_key (printed_key (1.5, 2.0, 0x1.0000000000001p+1)) in
  Alcotest.(check string) "deterministic" a b;
  Alcotest.(check bool) "sensitive to the value" true (a <> c)

let test_ck_truncate_every_byte () =
  (* property: a checkpoint file cut at ANY byte offset either loads a
     strict prefix of the records or fails cleanly — never a crash,
     never a corrupt record served as valid *)
  with_ck_file @@ fun path ->
  let t = Ck.open_ path in
  let keys =
    List.init 5 (fun i -> Ck.digest_key (Printf.sprintf "point-%d" i))
  in
  List.iteri
    (fun i k ->
      Ck.record t ~key:k ~descr:(Printf.sprintf "descr %d" i)
        (Printf.sprintf "%h" (float_of_int i *. 1.25)))
    keys;
  Ck.close t;
  let whole = In_channel.with_open_bin path In_channel.input_all in
  let total = String.length whole in
  let tmp = Filename.temp_file "dramstress_ck_cut" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      for cut = 0 to total do
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc (String.sub whole 0 cut));
        match Ck.open_ tmp with
        | t ->
          let n = Ck.entries t in
          if n > 5 then
            Alcotest.failf "cut at %d invented records (%d)" cut n;
          (* every surviving record must be one of the true payloads *)
          List.iteri
            (fun i k ->
              match Ck.find t k with
              | None -> ()
              | Some v ->
                Alcotest.(check string)
                  (Printf.sprintf "cut %d, record %d intact" cut i)
                  (Printf.sprintf "%h" (float_of_int i *. 1.25))
                  v)
            keys;
          Ck.close t
        | exception exn ->
          Alcotest.failf "cut at %d: load crashed with %s" cut
            (Printexc.to_string exn)
      done;
      (* the untruncated file loads everything *)
      let t = Ck.open_ tmp in
      Alcotest.(check int) "full file loads all" 5 (Ck.entries t);
      Ck.close t)

(* ------------------------------------------------------------------ *)
(* Chaos                                                               *)
(* ------------------------------------------------------------------ *)

module Chaos = Dramstress_util.Chaos

let with_chaos f =
  Fun.protect ~finally:(fun () -> Chaos.disarm ()) f

let test_chaos_dormant_by_default () =
  Chaos.disarm ();
  Alcotest.(check bool) "dormant" false (Chaos.armed ());
  Alcotest.(check bool) "fire is false" false (Chaos.fire Chaos.Inject_nan_state);
  Alcotest.(check int) "nothing injected" 0 (Chaos.total_injected ())

let test_chaos_spec_parsing () =
  with_chaos @@ fun () ->
  Chaos.configure ~seed:7 "inject_nan_state@50,fail_worker_task@+3";
  Alcotest.(check bool) "armed" true (Chaos.armed ());
  Alcotest.(check int) "seed" 7 (Chaos.seed ());
  Alcotest.check_raises "unknown fault"
    (Invalid_argument "Chaos: unknown fault class \"bogus\"") (fun () ->
      Chaos.configure ~seed:1 "bogus");
  Alcotest.check_raises "bad period"
    (Invalid_argument "Chaos: bad fault period \"0\" in \"inject_nan_state@0\"")
    (fun () -> Chaos.configure ~seed:1 "inject_nan_state@0");
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Chaos.fault_name f) true
        (Chaos.fault_of_name (Chaos.fault_name f) = Some f))
    Chaos.all_faults

let test_chaos_every_determinism () =
  with_chaos @@ fun () ->
  let pattern () =
    Chaos.configure ~seed:42 "inject_nan_state@5";
    List.init 20 (fun _ -> Chaos.fire Chaos.Inject_nan_state)
  in
  let a = pattern () and b = pattern () in
  Alcotest.(check (list bool)) "seed-deterministic" a b;
  Alcotest.(check int) "4 windows of 5 in 20 queries" 4
    (List.length (List.filter Fun.id a));
  (* a different seed shifts which query in the window fires *)
  Chaos.configure ~seed:43 "inject_nan_state@5";
  let c = List.init 20 (fun _ -> Chaos.fire Chaos.Inject_nan_state) in
  Alcotest.(check int) "same count under any seed" 4
    (List.length (List.filter Fun.id c));
  Alcotest.(check bool) "different phase" true (a <> c);
  (* unconfigured faults never fire while others do *)
  Alcotest.(check bool) "other fault silent" false
    (Chaos.fire Chaos.Perturb_jacobian)

let test_chaos_once_mode () =
  with_chaos @@ fun () ->
  Chaos.configure ~seed:9 "force_newton_diverge@+3";
  let fires = List.init 10 (fun _ -> Chaos.fire Chaos.Force_newton_diverge) in
  Alcotest.(check (list bool)) "exactly the 3rd query"
    [ false; false; true; false; false; false; false; false; false; false ]
    fires;
  Alcotest.(check int) "counted once" 1 (Chaos.injected Chaos.Force_newton_diverge);
  Alcotest.(check int) "total matches" 1 (Chaos.total_injected ())

let test_chaos_injection_accounting () =
  with_chaos @@ fun () ->
  Chaos.configure ~seed:1 "inject_nan_state@2,perturb_jacobian@4";
  for _ = 1 to 8 do
    ignore (Chaos.fire Chaos.Inject_nan_state);
    ignore (Chaos.fire Chaos.Perturb_jacobian)
  done;
  Alcotest.(check int) "nan: 4 of 8" 4 (Chaos.injected Chaos.Inject_nan_state);
  Alcotest.(check int) "jacobian: 2 of 8" 2
    (Chaos.injected Chaos.Perturb_jacobian);
  Alcotest.(check int) "total = sum of classes"
    (List.fold_left (fun acc f -> acc + Chaos.injected f) 0 Chaos.all_faults)
    (Chaos.total_injected ());
  Chaos.reset_counts ();
  Alcotest.(check int) "reset" 0 (Chaos.total_injected ())

let test_chaos_env_parsing () =
  with_chaos @@ fun () ->
  Unix.putenv "DRAMSTRESS_CHAOS" "42:inject_nan_state@50";
  Chaos.configure_from_env ();
  Alcotest.(check bool) "armed from env" true (Chaos.armed ());
  Alcotest.(check int) "seed from env" 42 (Chaos.seed ());
  Unix.putenv "DRAMSTRESS_CHAOS" "off";
  Chaos.configure_from_env ();
  Alcotest.(check bool) "off disarms" false (Chaos.armed ());
  Unix.putenv "DRAMSTRESS_CHAOS" "";
  Chaos.configure_from_env ();
  Alcotest.(check bool) "empty stays dormant" false (Chaos.armed ())

let test_chaos_truncated_record_resume () =
  with_chaos @@ fun () ->
  (* the Checkpoint injection site: every second record is cut in half
     mid-write, as if the process were killed during the append. The
     running campaign is unaffected (the in-memory table holds the
     value); a resume must load the intact records and skip the
     mangled ones cleanly. *)
  with_ck_file @@ fun path ->
  Chaos.configure ~seed:1 "truncate_checkpoint@2";
  let t = Ck.open_ path in
  let keys = List.init 6 (fun i -> Ck.digest_key (Printf.sprintf "p%d" i)) in
  List.iteri
    (fun i k -> Ck.record t ~key:k (Printf.sprintf "payload-%d" i))
    keys;
  (* current run still sees everything *)
  List.iteri
    (fun i k ->
      Alcotest.(check (option string))
        (Printf.sprintf "in-memory p%d" i)
        (Some (Printf.sprintf "payload-%d" i))
        (Ck.find t k))
    keys;
  Ck.close t;
  let n_injected = Chaos.injected Chaos.Truncate_checkpoint in
  Alcotest.(check int) "3 of 6 records truncated" 3 n_injected;
  Chaos.disarm ();
  (* a truncated record has no newline, so the next append glues onto
     it: the resume must keep the clean prefix, skip the mangled bytes
     and never serve a corrupt payload *)
  let t = Ck.open_ path in
  List.iteri
    (fun i k ->
      match Ck.find t k with
      | None -> ()
      | Some v ->
        Alcotest.(check string)
          (Printf.sprintf "resumed p%d uncorrupted" i)
          (Printf.sprintf "payload-%d" i)
          v)
    keys;
  Alcotest.(check (option string)) "clean head record survives"
    (Some "payload-0")
    (Ck.find t (List.hd keys));
  Ck.close t

let test_chaos_worker_fault_outcomes () =
  with_chaos @@ fun () ->
  (* the Par injection site: armed Fail_worker_task turns slots into
     structured Failed outcomes without aborting the campaign *)
  Chaos.configure ~seed:0 "fail_worker_task@4";
  let module Par = Dramstress_util.Par in
  let module Outcome = Dramstress_util.Outcome in
  let outs =
    Par.parallel_map_outcomes ~jobs:1 (fun x -> x * 10) (List.init 8 Fun.id)
  in
  Alcotest.(check int) "all slots kept" 8 (List.length outs);
  let failed =
    List.filter
      (function
        | Outcome.Failed { error = Chaos.Injected_fault _; _ } -> true
        | Outcome.Failed _ | Outcome.Ok _ -> false)
      outs
  in
  Alcotest.(check int) "2 of 8 injected" 2 (List.length failed);
  Alcotest.(check int) "accounting agrees" 2
    (Chaos.injected Chaos.Fail_worker_task);
  (* disarmed: same call is clean *)
  Chaos.disarm ();
  let outs = Par.parallel_map_outcomes ~jobs:1 (fun x -> x) [ 1; 2; 3 ] in
  Alcotest.(check bool) "no failures when dormant" true
    (List.for_all (function Outcome.Ok _ -> true | _ -> false) outs)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

module St = Dramstress_util.Store

let with_store_dir f =
  let dir = Filename.temp_file "dramstress_store" "" in
  Sys.remove dir;
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
        Sys.rmdir p
      end
      else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> try rm dir with Sys_error _ -> ())
    (fun () -> f dir)

let test_store_roundtrip () =
  with_store_dir @@ fun dir ->
  let s = St.open_ ~engine:"engine-A" ~name:"rt" dir in
  Alcotest.(check (option string)) "miss" None (St.find s ~key:"alpha");
  St.put s ~key:"alpha" ~descr:"alpha point" "0x1.9p+3";
  Alcotest.(check (option string))
    "hit" (Some "0x1.9p+3") (St.find s ~key:"alpha");
  (* success records are first-wins: a replayed point never clobbers *)
  St.put s ~key:"alpha" "other";
  Alcotest.(check (option string))
    "first wins" (Some "0x1.9p+3") (St.find s ~key:"alpha");
  (* failure markers are last-wins *)
  St.put s ~key:"marker" ~overwrite:true "attempt 1";
  St.put s ~key:"marker" ~overwrite:true "attempt 2";
  Alcotest.(check (option string))
    "overwrite: last wins" (Some "attempt 2")
    (St.find s ~key:"marker");
  St.close s;
  (* records outlive the process: a fresh handle sees everything *)
  let s = St.open_ ~engine:"engine-B" ~name:"rt" dir in
  Alcotest.(check (option string))
    "persisted" (Some "0x1.9p+3") (St.find s ~key:"alpha");
  Alcotest.(check (option string))
    "last overwrite persisted" (Some "attempt 2")
    (St.find s ~key:"marker");
  St.close s

let test_store_index_and_engines () =
  with_store_dir @@ fun dir ->
  let s = St.open_ ~engine:"engine-A" ~name:"idx" dir in
  St.put s ~key:"k1" "v1";
  St.put s ~key:"k2" "v2";
  St.close s;
  (* a second build appends under its own identity; the reopened
     handle reads name and count from the directory, and the staleness
     report tallies both engines *)
  let s = St.open_ ~engine:"engine-B" ~name:"other" dir in
  Alcotest.(check string) "name" "idx" (St.name s);
  Alcotest.(check int) "records" 2 (St.entries s);
  Alcotest.(check (list (pair string int)))
    "engine before the second build writes" [ ("engine-A", 2) ]
    (St.engines s);
  St.put s ~key:"k3" "v3";
  Alcotest.(check (list (pair string int)))
    "engines, most frequent first"
    [ ("engine-A", 2); ("engine-B", 1) ]
    (St.engines s);
  St.close s

let test_store_keeps_created_name () =
  (* reopening under another name (a campaign status with a different
     manifest, a CLI sweep's --store) must not relabel the store *)
  let check_layout shards =
    with_store_dir @@ fun dir ->
    let s = St.open_ ?shards ~engine:"e" ~name:"a" dir in
    St.put s ~key:"k" "v";
    St.close s;
    let s = St.open_ ~engine:"e" ~name:"b" dir in
    Alcotest.(check string) "handle reports the created name" "a" (St.name s);
    St.put s ~key:"k2" "v2";
    St.close s;
    let s = St.open_ ~engine:"e" ~name:"c" dir in
    Alcotest.(check string) "reopened after a write, still a" "a" (St.name s);
    Alcotest.(check int) "both records" 2 (St.entries s);
    St.close s
  in
  check_layout None;
  check_layout (Some 4)

let test_store_truncated_tail () =
  with_store_dir @@ fun dir ->
  let s = St.open_ ~engine:"e" ~name:"t" dir in
  St.put s ~key:"whole" "intact";
  St.close s;
  (* simulate a kill mid-write on the shared records file *)
  let oc =
    open_out_gen [ Open_append ] 0o644 (Filename.concat dir "records.jsonl")
  in
  output_string oc "{\"engine\":\"e\",\"key\":\"dead";
  close_out oc;
  let s = St.open_ ~engine:"e" ~name:"t" dir in
  Alcotest.(check int) "only the intact record" 1 (St.entries s);
  Alcotest.(check (option string))
    "intact record served" (Some "intact")
    (St.find s ~key:"whole");
  St.close s

let test_store_memo () =
  with_store_dir @@ fun dir ->
  let calls = ref 0 in
  let compute () =
    incr calls;
    6.5
  in
  let enc = Printf.sprintf "%h" in
  let dec = float_of_string_opt in
  let s = St.open_ ~engine:"e" ~name:"m" dir in
  let v = St.memo s ~key:"point" ~encode:enc ~decode:dec compute in
  Alcotest.(check (float 0.0)) "miss computes" 6.5 v;
  let v = St.memo s ~key:"point" ~encode:enc ~decode:dec compute in
  Alcotest.(check (float 0.0)) "hit" 6.5 v;
  Alcotest.(check int) "computed once" 1 !calls;
  St.close s;
  let s = St.open_ ~engine:"e" ~name:"m" dir in
  let v = St.memo s ~key:"point" ~encode:enc ~decode:dec compute in
  Alcotest.(check (float 0.0)) "hit across reopen" 6.5 v;
  Alcotest.(check int) "still computed once" 1 !calls;
  St.close s

(* the memo contract on its own: a miss computes, a hit and a hit after
   reopening do not, and a payload the decoder refuses is recomputed *)
let test_store_memo_hit_miss_fallback () =
  with_store_dir @@ fun dir ->
  let calls = ref 0 in
  let compute () =
    incr calls;
    3.25
  in
  let enc = Printf.sprintf "%h" in
  let dec s = float_of_string_opt s in
  let s = St.open_ ~name:"m" dir in
  let v = St.memo s ~key:"k" ~encode:enc ~decode:dec compute in
  Alcotest.(check (float 0.0)) "miss computes" 3.25 v;
  Alcotest.(check int) "computed" 1 !calls;
  let v = St.memo s ~key:"k" ~encode:enc ~decode:dec compute in
  Alcotest.(check (float 0.0)) "hit" 3.25 v;
  Alcotest.(check int) "served from store" 1 !calls;
  St.close s;
  (* and across a resume *)
  let s = St.open_ ~name:"m" dir in
  let v = St.memo s ~key:"k" ~encode:enc ~decode:dec compute in
  Alcotest.(check (float 0.0)) "hit after resume" 3.25 v;
  Alcotest.(check int) "no recomputation" 1 !calls;
  (* decode refusing the payload falls back to recomputation *)
  let v = St.memo s ~key:"k" ~encode:enc ~decode:(fun _ -> None) compute in
  Alcotest.(check (float 0.0)) "fallback value" 3.25 v;
  Alcotest.(check int) "recomputed on decode failure" 2 !calls;
  (* a replay-only handle answers what the store holds and raises on a
     miss, computing and recording nothing *)
  St.replay_only s;
  let v = St.memo s ~key:"k" ~encode:enc ~decode:dec compute in
  Alcotest.(check (float 0.0)) "replay hit" 3.25 v;
  (match
     St.memo s ~key:"absent" ~descr:"point absent" ~encode:enc ~decode:dec
       compute
   with
  | _ -> Alcotest.fail "a replay-only miss must raise"
  | exception St.Missing what ->
    Alcotest.(check string) "Missing names the record" "point absent" what);
  Alcotest.(check int) "nothing computed on replay" 2 !calls;
  Alcotest.(check (option string)) "nothing recorded" None
    (St.find s ~key:"absent");
  St.close s

(* printed keys are content addresses: distinct values must never
   collide ([%h] is exact, down to the sign of zero), equal values must
   agree across domains and re-serialization *)

let has_nan (a, b, c) =
  Float.is_nan a || Float.is_nan b || Float.is_nan c

let same_bits (a1, b1, c1) (a2, b2, c2) =
  List.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    [ a1; b1; c1 ] [ a2; b2; c2 ]

let prop_fingerprint_injective =
  QCheck.Test.make ~count:200
    ~name:"distinct values -> distinct fingerprints"
    QCheck.(
      pair
        (triple float float float)
        (triple float float float))
    (fun (a, b) ->
      QCheck.assume (not (has_nan a) && not (has_nan b));
      let ka = Ck.digest_key (printed_key a)
      and kb = Ck.digest_key (printed_key b) in
      if same_bits a b then ka = kb else ka <> kb)

let prop_fingerprint_stable_reserialized =
  (* the printed key addresses durable stores, so it must survive a
     round-trip through the record file byte-exactly *)
  QCheck.Test.make ~count:50
    ~name:"fingerprint round-trips through a store"
    QCheck.(triple float float float)
    (fun v ->
      QCheck.assume (not (has_nan v));
      with_store_dir @@ fun dir ->
      let s = St.open_ ~engine:"e" ~name:"fp" dir in
      St.put s ~key:(printed_key v) "seen";
      St.close s;
      let s = St.open_ ~engine:"e" ~name:"fp" dir in
      let hit = St.find s ~key:(printed_key v) = Some "seen" in
      St.close s;
      hit)

let test_fingerprint_domain_stable () =
  let v = (2.4, 60e-9, 300.15) in
  let expected = Ck.digest_key (printed_key v) in
  let fps =
    List.init 4 (fun _ ->
        Domain.spawn (fun () -> Ck.digest_key (printed_key v)))
    |> List.map Domain.join
  in
  List.iter
    (Alcotest.(check string) "same fingerprint in every domain" expected)
    fps

(* ------------------------------------------------------------------ *)
(* Par: env junk degrades with one warning                             *)
(* ------------------------------------------------------------------ *)

module Tel = Dramstress_util.Telemetry

let with_tel f =
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled false) f

let test_par_env_warning_logged_once () =
  let with_env var v f =
    let old = Sys.getenv_opt var in
    Unix.putenv var v;
    Par.reset_env_warnings ();
    Fun.protect f ~finally:(fun () ->
        Unix.putenv var (Option.value old ~default:"");
        Par.reset_env_warnings ())
  in
  (* zero, negative and non-numeric env values all degrade to the
     default — never to a crash, never to 0 domains — and each variable
     warns exactly once no matter how often it is resolved *)
  with_env "DRAMSTRESS_LANES" "0" (fun () ->
      Alcotest.(check int) "zero falls back" Par.default_lanes
        (Par.resolve_lanes ());
      Alcotest.(check (list (pair string string)))
        "rejected value logged"
        [ ("DRAMSTRESS_LANES", "0") ]
        (Par.env_warnings ());
      ignore (Par.resolve_lanes ());
      ignore (Par.resolve_lanes ());
      Alcotest.(check int) "warned once, not per resolve" 1
        (List.length (Par.env_warnings ())));
  with_env "DRAMSTRESS_LANES" "-2" (fun () ->
      Alcotest.(check int) "negative falls back" Par.default_lanes
        (Par.resolve_lanes ());
      Alcotest.(check (list (pair string string)))
        "negative logged"
        [ ("DRAMSTRESS_LANES", "-2") ]
        (Par.env_warnings ()));
  with_env "DRAMSTRESS_JOBS" "banana" (fun () ->
      Alcotest.(check bool) "garbage resolves to >= 1" true
        (Par.resolve_jobs () >= 1);
      Alcotest.(check (list (pair string string)))
        "garbage logged"
        [ ("DRAMSTRESS_JOBS", "banana") ]
        (Par.env_warnings ()));
  (* unset (empty) is the documented "not set" spelling: silent *)
  with_env "DRAMSTRESS_LANES" "" (fun () ->
      Alcotest.(check int) "empty takes the default" Par.default_lanes
        (Par.resolve_lanes ());
      Alcotest.(check (list (pair string string)))
        "empty is not junk" [] (Par.env_warnings ()))

(* ------------------------------------------------------------------ *)
(* Checkpoint: sick lines mid-file                                     *)
(* ------------------------------------------------------------------ *)

let file_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let write_file_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let test_ck_bad_middle_line_tail_replays () =
  with_ck_file @@ fun path ->
  let t = Ck.open_ path in
  List.iter
    (fun k -> Ck.record t ~key:(Ck.digest_key k) ("payload-" ^ k))
    [ "k1"; "k2"; "k3" ];
  Ck.close t;
  (* mangle the middle line in place, keeping its newline: the records
     behind it must still replay *)
  (match file_lines path with
  | [ l1; l2; l3 ] ->
    let chopped = String.sub l2 0 (String.length l2 - 10) in
    write_file_lines path [ l1; chopped; l3 ]
  | ls -> Alcotest.failf "expected 3 lines, found %d" (List.length ls));
  let t = Ck.open_ path in
  Alcotest.(check int) "tail replayed past the sick line" 2 (Ck.entries t);
  Alcotest.(check (option string))
    "head intact" (Some "payload-k1")
    (Ck.find t (Ck.digest_key "k1"));
  Alcotest.(check (option string))
    "tail intact" (Some "payload-k3")
    (Ck.find t (Ck.digest_key "k3"));
  Alcotest.(check (option string))
    "sick record lost, not resurrected" None
    (Ck.find t (Ck.digest_key "k2"));
  (* the lost point is simply recomputed and the file heals *)
  Ck.record t ~key:(Ck.digest_key "k2") "payload-k2";
  Ck.close t;
  let t = Ck.open_ path in
  Alcotest.(check (option string))
    "recomputed record persisted" (Some "payload-k2")
    (Ck.find t (Ck.digest_key "k2"));
  Ck.close t

let test_store_memo_repairs_refused_payload () =
  with_tel @@ fun () ->
  with_store_dir @@ fun dir ->
  let counter name = Tel.Counter.value (Tel.Counter.make name) in
  let calls = ref 0 in
  let compute v () =
    incr calls;
    v
  in
  let memo t k v =
    St.memo t ~key:k ~encode:string_of_int ~decode:int_of_string_opt
      (compute v)
  in
  let t = St.open_ ~name:"m" dir in
  ignore (memo t "k1" 1);
  ignore (memo t "k2" 2);
  ignore (memo t "k3" 3);
  St.close t;
  Alcotest.(check int) "three cold computes" 3 !calls;
  (* replace the middle record's payload with a well-formed line the
     decoder refuses: a mid-file corruption, not a truncated tail *)
  let path = Filename.concat dir "records.jsonl" in
  (match file_lines path with
  | [ l1; _; l3 ] ->
    let bad =
      Printf.sprintf {|{"key":"%s","value":"not-an-int"}|}
        (Ck.digest_key "k2")
    in
    write_file_lines path [ l1; bad; l3 ]
  | ls -> Alcotest.failf "expected 3 lines, found %d" (List.length ls));
  let t = St.open_ ~name:"m" dir in
  let skipped_before = counter "util.checkpoint.skipped_records" in
  let hits_before = counter "util.checkpoint.hits" in
  let misses_before = counter "util.checkpoint.misses" in
  calls := 0;
  Alcotest.(check int) "clean head is a hit" 1 (memo t "k1" 1);
  Alcotest.(check int) "clean tail replayed" 3 (memo t "k3" 3);
  Alcotest.(check int) "no recompute for clean records" 0 !calls;
  Alcotest.(check int) "refused payload recomputed" 2 (memo t "k2" 2);
  Alcotest.(check int) "one recompute" 1 !calls;
  Alcotest.(check int) "skip counted" (skipped_before + 1)
    (counter "util.checkpoint.skipped_records");
  Alcotest.(check int) "repair served from memory" 2 (memo t "k2" 2);
  Alcotest.(check int) "still one recompute" 1 !calls;
  Alcotest.(check (pair int int)) "three hits, one miss"
    (hits_before + 3, misses_before + 1)
    (counter "util.checkpoint.hits", counter "util.checkpoint.misses");
  St.close t;
  (* the repair was appended (last record wins), so a fresh resume
     serves it without recomputation *)
  let t = St.open_ ~name:"m" dir in
  calls := 0;
  Alcotest.(check int) "repair persisted" 2 (memo t "k2" 2);
  Alcotest.(check int) "no recompute after repair" 0 !calls;
  St.close t

(* ------------------------------------------------------------------ *)
(* Store: sharding, layout, merge                                     *)
(* ------------------------------------------------------------------ *)

let test_store_sharded_roundtrip () =
  with_store_dir @@ fun dir ->
  let keys = List.init 20 (Printf.sprintf "point-%d") in
  let s = St.open_ ~engine:"e" ~shards:4 ~name:"sh" dir in
  Alcotest.(check int) "pinned shard count" 4 (St.shards s);
  List.iter (fun k -> St.put s ~key:k ~descr:k ("v:" ^ k)) keys;
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "hit" (Some ("v:" ^ k))
        (St.find s ~key:k))
    keys;
  Alcotest.(check int) "entries across shards" 20 (St.entries s);
  St.close s;
  (* routing is per key: each record sits in the shard the first two
     hex digits of its own digest pick *)
  List.iter
    (fun k ->
      let d = Ck.digest_key k in
      let shard = int_of_string ("0x" ^ String.sub d 0 2) mod 4 in
      let file =
        Filename.concat dir (Printf.sprintf "shards/%02x/records.jsonl" shard)
      in
      let found = ref None in
      Ck.scan file (fun ~descr:_ ~engine:_ ~key ~value ->
          if key = d then found := Some value);
      Alcotest.(check (option string)) "routed shard holds the record"
        (Some ("v:" ^ k)) !found)
    keys;
  (* reopen with no explicit count: the on-disk layout wins *)
  let s = St.open_ ~engine:"e" ~name:"other" dir in
  Alcotest.(check int) "layout autodetected" 4 (St.shards s);
  Alcotest.(check string) "created name" "sh" (St.name s);
  Alcotest.(check int) "reopened entries" 20 (St.entries s);
  List.iter
    (fun k ->
      Alcotest.(check (option string)) "persisted" (Some ("v:" ^ k))
        (St.find s ~key:k))
    keys;
  St.close s;
  (* the matching explicit count is fine; any other count is refused *)
  let s = St.open_ ~engine:"e" ~shards:4 ~name:"sh" dir in
  St.close s;
  Alcotest.(check bool) "mismatched count refused" true
    (match St.open_ ~engine:"e" ~shards:8 ~name:"sh" dir with
    | exception Invalid_argument _ -> true
    | s ->
      St.close s;
      false)

let test_store_layout_conflict_refused () =
  (* with or without records: an existing store's layout is fixed *)
  let check_refused ~put =
    with_store_dir @@ fun dir ->
    let s = St.open_ ~engine:"e" ~name:"single" dir in
    if put then St.put s ~key:"k" "v";
    St.close s;
    Alcotest.(check bool) "shards on an existing single-file store" true
      (match St.open_ ~engine:"e" ~shards:4 ~name:"single" dir with
      | exception Invalid_argument _ -> true
      | s ->
        St.close s;
        false)
  in
  check_refused ~put:true;
  check_refused ~put:false

(* the record files are the whole store: besides them a fresh store
   writes only its name, its lockfile and (sharded) its pinned count,
   and a store from before the name file reads its index.json once for
   the name and never writes it *)
let test_store_is_its_records () =
  let listing dir = Sys.readdir dir |> Array.to_list |> List.sort compare in
  (with_store_dir @@ fun dir ->
   let s = St.open_ ~engine:"e" ~name:"single" dir in
   St.put s ~key:"k" "v";
   St.close s;
   Alcotest.(check (list string)) "single-file layout"
     [ "name"; "records.jsonl"; "store.lock" ]
     (listing dir));
  (with_store_dir @@ fun dir ->
   let s = St.open_ ~engine:"e" ~shards:4 ~name:"sharded" dir in
   List.iter (fun k -> St.put s ~key:k "v") (List.init 20 string_of_int);
   St.close s;
   Alcotest.(check (list string)) "sharded layout"
     [ "name"; "shards"; "store.lock" ]
     (listing dir);
   Alcotest.(check (list string)) "shard directory"
     [ ".count"; "00"; "01"; "02"; "03" ]
     (listing (Filename.concat dir "shards"));
   Array.iter
     (fun sd ->
       let sd = Filename.concat (Filename.concat dir "shards") sd in
       if Sys.is_directory sd then
         Alcotest.(check (list string)) "a shard holds its records"
           [ "records.jsonl" ] (listing sd))
     (Sys.readdir (Filename.concat dir "shards")));
  with_store_dir @@ fun dir ->
  (* a legacy directory: records and a summary, no name file *)
  let s = St.open_ ~engine:"e" ~name:"old" dir in
  St.put s ~key:"k" "v";
  St.close s;
  Sys.remove (Filename.concat dir "name");
  let index = {|{"name":"old","engine":"e","records":1,"shards":0}|} in
  Out_channel.with_open_bin (Filename.concat dir "index.json") (fun oc ->
      output_string oc index);
  let s = St.open_ ~engine:"e" ~name:"new" dir in
  Alcotest.(check string) "legacy name kept" "old" (St.name s);
  Alcotest.(check (option string)) "legacy record served" (Some "v")
    (St.find s ~key:"k");
  St.put s ~key:"k2" "v2";
  St.close s;
  let s = St.open_ ~engine:"e" ~name:"newer" dir in
  Alcotest.(check string) "name file took the legacy name" "old" (St.name s);
  Alcotest.(check int) "records counted from the log" 2 (St.entries s);
  St.close s;
  Alcotest.(check string) "index.json never written" index
    (In_channel.with_open_bin (Filename.concat dir "index.json")
       In_channel.input_all)

let test_store_merge_rules () =
  with_store_dir @@ fun dst_dir ->
  with_store_dir @@ fun src_dir ->
  (* dst holds records from an old build *)
  let d = St.open_ ~engine:"old" ~name:"m" dst_dir in
  St.put d ~key:"kA" "old-a";
  St.put d ~key:"kB" "same";
  St.close d;
  (* src mixes records from the current build and a third one *)
  let s = St.open_ ~engine:"cur" ~name:"m" src_dir in
  St.put s ~key:"kA" "cur-a";
  St.put s ~key:"kB" "same";
  St.put s ~key:"kC" "cur-c";
  St.close s;
  let s = St.open_ ~engine:"third" ~name:"m" src_dir in
  St.put s ~key:"kD" "third-d";
  St.close s;
  let src = St.open_ ~engine:"cur" ~name:"m" src_dir in
  let dst = St.open_ ~engine:"cur" ~name:"m" dst_dir in
  let stats = St.merge ~src ~dst in
  (* kC+kD added; kA replaced (src is current-engine, dst copy is
     not); kB kept (identical) *)
  Alcotest.(check int) "added" 2 stats.St.added;
  Alcotest.(check int) "replaced" 1 stats.St.replaced;
  Alcotest.(check int) "kept" 1 stats.St.kept;
  (* the open destination sees the merge immediately *)
  Alcotest.(check (option string)) "conflict: current engine wins"
    (Some "cur-a") (St.find dst ~key:"kA");
  Alcotest.(check (option string)) "added record" (Some "cur-c")
    (St.find dst ~key:"kC");
  Alcotest.(check (option string)) "copied record" (Some "third-d")
    (St.find dst ~key:"kD");
  (* a copied record keeps its original engine stamp *)
  let tally = St.engines dst in
  Alcotest.(check (option int)) "third-party stamp survives the copy"
    (Some 1)
    (List.assoc_opt "third" tally);
  St.close src;
  St.close dst;
  (* the reverse conflict: a stale src copy never clobbers a
     current-engine dst record *)
  let d = St.open_ ~engine:"cur" ~name:"m" dst_dir in
  St.put d ~key:"kF" "cur-f";
  St.close d;
  let s = St.open_ ~engine:"old" ~name:"m" src_dir in
  St.put s ~key:"kF" "old-f";
  St.close s;
  let src = St.open_ ~engine:"cur" ~name:"m" src_dir in
  let dst = St.open_ ~engine:"cur" ~name:"m" dst_dir in
  let stats = St.merge ~src ~dst in
  Alcotest.(check int) "nothing added on re-merge" 0 stats.St.added;
  Alcotest.(check int) "stale src never replaces" 0 stats.St.replaced;
  Alcotest.(check (option string)) "current dst record kept"
    (Some "cur-f") (St.find dst ~key:"kF");
  St.close src;
  St.close dst

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Mutated record files                                               *)
(* ------------------------------------------------------------------ *)

(* a records file as a store writes it: descriptors (one with an
   escaped quote and newline), an engine stamp, hex payloads *)
let ck_seed =
  with_ck_file @@ fun path ->
  let t = Ck.open_ ~extra:[ ("engine", "git 0123abc") ] path in
  List.iter
    (fun (d, v) -> Ck.record t ~key:(Ck.digest_key d) ~descr:d v)
    [ ("O1 true nominal", "0x1.8p+17 0x1.4p+19");
      ("Sg \"comp\"\nstressed", "unknown");
      ("B2 banded", "0x1p+10;0x1p+12") ];
  Ck.close t;
  In_channel.with_open_bin path In_channel.input_all

let c_ck_loaded = Tel.Counter.make "util.checkpoint.loaded"
let c_ck_malformed = Tel.Counter.make "util.checkpoint.malformed_lines"
let c_ck_unusable = Tel.Counter.make "util.checkpoint.skipped_records"

let non_blank_lines text =
  List.length
    (List.filter
       (fun l -> String.trim l <> "")
       (String.split_on_char '\n' text))

(* [read path] on a file holding [text], with telemetry on: what it
   returned and how many lines it skipped (malformed or unusable) *)
let read_mutated text read =
  with_tel @@ fun () ->
  with_ck_file @@ fun path ->
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let skipped () =
    Tel.Counter.value c_ck_malformed + Tel.Counter.value c_ck_unusable
  in
  let s0 = skipped () in
  let r = read path in
  (r, skipped () - s0)

(* every non-blank line of a mutated file is replayed or skipped and
   counted, and the replay table holds no more than was replayed *)
let prop_ck_replay_mutated =
  Mutate.prop ~name:"checkpoint: mutated record files replay or count"
    [ ck_seed ] (fun text ->
      let (loaded, entries), skipped =
        read_mutated text (fun path ->
            let l0 = Tel.Counter.value c_ck_loaded in
            let t = Ck.open_ path in
            let entries = Ck.entries t in
            Ck.close t;
            (Tel.Counter.value c_ck_loaded - l0, entries))
      in
      if loaded + skipped < non_blank_lines text || entries > loaded then
        failwith
          (Printf.sprintf "%d lines: %d replayed, %d skipped, %d entries"
             (non_blank_lines text) loaded skipped entries))

(* the raw scan accounts for every line the same way, and field
   extraction on any mutated line answers without raising *)
let prop_ck_scan_mutated =
  Mutate.prop ~name:"checkpoint: mutated lines scan and extract or count"
    [ ck_seed ] (fun text ->
      let seen, skipped =
        read_mutated text (fun path ->
            let n = ref 0 in
            Ck.scan path (fun ~descr:_ ~engine:_ ~key:_ ~value:_ -> incr n);
            !n)
      in
      if seen + skipped < non_blank_lines text then
        failwith
          (Printf.sprintf "%d lines: %d scanned, %d skipped"
             (non_blank_lines text) seen skipped);
      List.iter
        (fun line ->
          List.iter
            (fun name -> ignore (Ck.field line name : string option))
            [ "descr"; "engine"; "key"; "value" ])
        (String.split_on_char '\n' text))

(* the case the scan property found: a line that is no record was
   skipped by the scan but, unlike on replay, never counted *)
let test_ck_scan_counts_malformed () =
  let text =
    match String.split_on_char '\n' ck_seed with
    | l1 :: _ :: rest -> String.concat "\n" (l1 :: "not a record" :: rest)
    | _ -> Alcotest.fail "seed has fewer than two lines"
  in
  let seen, skipped =
    read_mutated text (fun path ->
        let n = ref 0 in
        Ck.scan path (fun ~descr:_ ~engine:_ ~key:_ ~value:_ -> incr n);
        !n)
  in
  Alcotest.(check (pair int int)) "two scanned, one counted" (2, 1)
    (seen, skipped)

(* ------------------------------------------------------------------ *)
(* Sparse LU: stale pivots and revalidation                            *)
(* ------------------------------------------------------------------ *)

module Sp = Dramstress_util.Sparse_lu
module Hm = Hold_matrices

let c_revalidations = Tel.Counter.make "util.sparse_lu.pivot_revalidations"
let c_reanalyses = Tel.Counter.make "util.sparse_lu.reanalyses"
let c_reuse = Tel.Counter.make "util.sparse_lu.symbolic_reuse"

(* structural pattern: every position non-zero in any of [mats] *)
let pattern_of mats =
  let n = Array.length (List.hd mats) in
  Array.init n (fun i ->
      Array.init n (fun j -> List.exists (fun a -> a.(i).(j) <> 0.0) mats))

let handle_for mats =
  let pattern = pattern_of mats in
  Sp.make ~n:(Array.length pattern) ~pattern

(* the slot values of dense [a] under [h]'s pattern, through [Sp.slot] *)
let slot_values h a =
  let v = Array.make (Sp.nnz h) 0.0 in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j x -> if x <> 0.0 then v.(Sp.slot h i j) <- x) row)
    a;
  v

(* the handle's counts are added to the registry at once, so that
   [lu_activity] reads each factor's own *)
let factor h a =
  Fun.protect ~finally:(fun () -> Sp.flush h) (fun () ->
      Sp.factor h (slot_values h a))

(* (pivot revalidations, dense re-analyses) during [f] *)
let lu_activity f =
  let r0 = Tel.Counter.value c_revalidations
  and a0 = Tel.Counter.value c_reanalyses in
  f ();
  ( Tel.Counter.value c_revalidations - r0,
    Tel.Counter.value c_reanalyses - a0 )

let sparse_solution h n =
  let x = Array.init n (fun i -> float_of_int (i + 1)) in
  Sp.solve h ~scratch:(Array.make n 0.0) x;
  Array.map Int64.bits_of_float x

(* A·Q: the dense matrix the handle's analysis factors, column [k]
   holding column [q.(k)] of [a] for [q = Sp.col_order h] *)
let times_q h a =
  let q = Sp.col_order h in
  Array.map (fun row -> Array.map (fun j -> row.(j)) q) a

let check_dense_perm h a =
  Alcotest.(check (option (array int)))
    "partial-pivot order of A·Q"
    (Some (L.lu_perm (L.lu_factor (times_q h a))))
    (Sp.perm h)

(* the retention-hold storm: the pivots of a 2 s hold fall under the
   refactor guard, yet the stored order is still the dense order, so it
   is revalidated instead of re-analysed, and the factors are the ones a
   fresh handle computes *)
let test_sparse_hold_revalidates () =
  with_tel @@ fun () ->
  let mats = [ Hm.hold_analysed; Hm.hold_stale; Hm.hold_next ] in
  let n = Array.length Hm.hold_stale in
  let h = handle_for mats in
  factor h Hm.hold_analysed;
  List.iter
    (fun a ->
      Alcotest.(check (pair int int))
        "revalidated, not re-analysed" (1, 0)
        (lu_activity (fun () -> factor h a));
      check_dense_perm h a;
      let fresh = handle_for mats in
      factor fresh a;
      Alcotest.(check (array int64))
        "bitwise the fresh solve" (sparse_solution fresh n)
        (sparse_solution h n))
    [ Hm.hold_stale; Hm.hold_next ]

(* a voltage source puts +1 and -1 in one column: the stored pivot ties
   with the entry below it, so only a dense analysis may decide *)
let vsource_system g =
  [| [| 1.0; g; 0.0 |]; [| -1.0; 0.0; g |]; [| 0.0; 1.0; -1.0 |] |]

let test_sparse_tie_falls_back () =
  with_tel @@ fun () ->
  let a = vsource_system 1e-12 in
  let h = handle_for [ vsource_system 1e-3 ] in
  factor h (vsource_system 1e-3);
  Alcotest.(check (pair int int))
    "re-analysed" (0, 1)
    (lu_activity (fun () -> factor h a));
  check_dense_perm h a

let full2 = [| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |]

let test_sparse_reordered_falls_back () =
  with_tel @@ fun () ->
  let a = [| [| 1e-11; 1.0 |]; [| 1.0; 1.0 |] |] in
  let h = handle_for [ full2; a ] in
  factor h full2;
  Alcotest.(check (pair int int))
    "re-analysed" (0, 1)
    (lu_activity (fun () -> factor h a));
  Alcotest.(check (option (array int))) "rows swapped" (Some [| 1; 0 |])
    (Sp.perm h);
  check_dense_perm h a

(* a NaN pivot (stale path) and a NaN the elimination never divides by,
   next to a pivot inside the revalidation band *)
let test_sparse_nan_keeps_analysis () =
  with_tel @@ fun () ->
  let h = handle_for [ full2 ] in
  factor h full2;
  let before = Sp.perm h in
  List.iter
    (fun a ->
      (match lu_activity (fun () -> factor h a) with
      | _ -> Alcotest.fail "non-finite system factored"
      | exception L.Singular _ -> ());
      Alcotest.(check (option (array int))) "analysis untouched" before
        (Sp.perm h))
    [
      [| [| Float.nan; 0.5 |]; [| 0.5; 1.0 |] |];
      [| [| 1e-11; Float.nan |]; [| 0.0; 1.0 |] |];
    ];
  let reuse0 = Tel.Counter.value c_reuse in
  factor h full2;
  Alcotest.(check int) "next healthy factor reuses" (reuse0 + 1)
    (Tel.Counter.value c_reuse)

(* one rank rule on both paths: the open's t = 0 system factors on a
   fresh handle (its numeric pass applies the thresholds the dense
   analysis recorded) and again under the stored order, where its pivot
   sits below the matrix-scale guard and is re-analysed, not rejected;
   the systems the dense factorization rejects raise on a fresh handle
   and after a healthy analysis alike, leaving that analysis in place *)
let test_sparse_row_scaled_threshold () =
  with_tel @@ fun () ->
  let h = handle_for [ open_at_t0 ] in
  factor h open_at_t0;
  check_dense_perm h open_at_t0;
  let first = sparse_solution h 3 in
  Alcotest.(check (pair int int))
    "re-analysed" (0, 1)
    (lu_activity (fun () -> factor h open_at_t0));
  Alcotest.(check (array int64)) "same solve" first (sparse_solution h 3);
  List.iter
    (fun (name, m) ->
      let singular h =
        match factor h m with
        | () -> Alcotest.failf "%s: expected Singular" name
        | exception L.Singular _ -> ()
      in
      singular (handle_for [ m ]);
      let h = handle_for [ open_at_t0; m ] in
      factor h open_at_t0;
      let before = Sp.perm h in
      singular h;
      Alcotest.(check (option (array int))) "analysis untouched" before
        (Sp.perm h))
    rank_rejects

(* revalidation reads [|m| < 1] off the multipliers in place of
   [|entry| < |pivot|]; the two agree for every finite pair *)
let multiplier_agrees a p =
  (Float.abs a < Float.abs p) = (Float.abs (a /. p) < 1.0)

let test_multiplier_test_exact () =
  let edges =
    [ 1.0; 2.0; 3.0; 1e-300; 4.9e-324; 1e-11; Float.max_float;
      Float.min_float; 0x1.fffffffffffffp-1; 0x1.0000000000001p+0 ]
  in
  List.iter
    (fun p ->
      List.iter
        (fun a ->
          if not (multiplier_agrees a p && multiplier_agrees (-.a) p) then
            Alcotest.failf "a = %h, p = %h" a p)
        [ 0.0; p; Float.pred p; Float.succ p; p /. 2.0; Float.pred (p /. 2.0) ])
    edges

let prop_multiplier_test_exact =
  QCheck.Test.make ~count:2000 ~name:"sparse lu: |a/p| < 1 iff |a| < |p|"
    QCheck.(pair float float)
    (fun (a, p) ->
      QCheck.assume (Float.is_finite a && Float.is_finite p && p <> 0.0);
      multiplier_agrees a p)

(* slots number the pattern row by row, columns ascending *)
let test_sparse_slot_numbering () =
  let pattern =
    [| [| true; false; true |]; [| false; false; false |];
       [| true; true; true |] |]
  in
  let h = Sp.make ~n:3 ~pattern in
  Alcotest.(check int) "nnz" 5 (Sp.nnz h);
  Alcotest.(check (list int)) "CSR order" [ 0; 1; 2; 3; 4 ]
    (List.map (fun (i, j) -> Sp.slot h i j)
       [ (0, 0); (0, 2); (2, 0); (2, 1); (2, 2) ]);
  match Sp.slot h 1 1 with
  | _ -> Alcotest.fail "off-pattern position has a slot"
  | exception Invalid_argument _ -> ()

(* Random sparse systems: a pattern of density ~0.3 with a mostly
   structural diagonal, values in [-1, 1] with exact zeros and the
   voltage-source +-1 ties mixed in, and a second value set on the same
   pattern whose rows and columns of a few random nodes are scaled into
   the revalidation band (C/dt sinking on a hold), so its refactor under
   the first order takes every path: a plain refactor, a revalidation,
   a dense re-analysis. *)
let gen_sparse_case st =
  let n = 1 + Random.State.int st 10 in
  let pattern =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Random.State.float st 1.0 < if i = j then 0.95 else 0.3))
  in
  let value () =
    match Random.State.int st 10 with
    | 0 -> 0.0
    | 1 -> 1.0
    | 2 -> -1.0
    | _ -> Random.State.float st 2.0 -. 1.0
  in
  let values scale =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if pattern.(i).(j) then value () *. scale i j else 0.0))
  in
  let a = values (fun _ _ -> 1.0) in
  let held = Array.init n (fun _ -> Random.State.int st 3 = 0) in
  let s = 10.0 ** -.float_of_int (11 + Random.State.int st 3) in
  let b = values (fun i j -> if held.(i) || held.(j) then s else 1.0) in
  (pattern, a, b)

let print_sparse_case (_, a, b) =
  Printf.sprintf "a =\n%s\nb =\n%s" (print_matrix a) (print_matrix b)

(* equal bit for bit, signed zeros aside (the dense elimination also
   subtracts the structural zeros the sparse one skips) *)
let same_float x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (x = 0.0 && y = 0.0)

let prop_sparse_matches_dense =
  QCheck.Test.make ~count:500
    ~name:"sparse lu: dense pivot order and solution, bit for bit"
    (QCheck.make ~print:print_sparse_case gen_sparse_case)
    (fun (pattern, a, b) ->
      with_tel @@ fun () ->
      let n = Array.length pattern in
      let h = Sp.make ~n ~pattern in
      let rhs = Array.init n (fun i -> float_of_int (i + 1)) in
      let dense_singular m =
        match L.lu_factor (times_q h m) with
        | _ -> false
        | exception L.Singular _ -> true
      in
      (* [h] holds a factorization of [m]: is it the dense one of
         A·Q, its solution [y] un-permuted to [x.(q.(k)) = y.(k)]? *)
      let matches_dense m =
        let d = L.lu_factor (times_q h m) in
        let x = Array.copy rhs in
        Sp.solve h ~scratch:(Array.make n 0.0) x;
        let q = Sp.col_order h in
        Sp.perm h = Some (L.lu_perm d)
        && Array.for_all2
             (fun k y -> same_float x.(k) y)
             q (L.lu_solve d rhs)
      in
      (* every factor of a fresh analysis, a revalidated order or a
         re-analysis is the dense one; a plain refactor keeps an order
         the dense LU need not pick, and is not compared *)
      let checked m =
        let fresh = Sp.perm h = None in
        match lu_activity (fun () -> factor h m) with
        | revalidated, reanalysed ->
          (not (fresh || revalidated > 0 || reanalysed > 0))
          || matches_dense m
        | exception L.Singular _ -> dense_singular m
      in
      checked a && checked b)

(* the column order is a permutation fixed by the pattern: two handles
   made from one pattern, and a [fresh] copy, agree on it before and
   after factoring different values (singular ones included) *)
let prop_col_order_from_pattern =
  QCheck.Test.make ~count:500
    ~name:"sparse lu: column order is a permutation of the pattern alone"
    (QCheck.make ~print:print_sparse_case gen_sparse_case)
    (fun (pattern, a, b) ->
      with_tel @@ fun () ->
      let n = Array.length pattern in
      let h1 = Sp.make ~n ~pattern and h2 = Sp.make ~n ~pattern in
      let h3 = Sp.fresh h1 in
      let q = Sp.col_order h1 in
      let try_factor h m =
        match factor h m with () -> () | exception L.Singular _ -> ()
      in
      try_factor h1 a;
      try_factor h2 b;
      try_factor h3 b;
      try_factor h1 b;
      List.sort compare (Array.to_list q) = List.init n Fun.id
      && List.for_all (fun h -> Sp.col_order h = q) [ h1; h2; h3 ])

(* ------------------------------------------------------------------ *)
(* frames                                                              *)
(* ------------------------------------------------------------------ *)

module Frame = Dramstress_util.Frame
module Pr = Dramstress_campaign.Protocol

(* [write] runs on its own thread: a payload larger than the socket
   buffer blocks the writer until the reader drains it, which also
   drives [Frame.write]'s loop over partial writes *)
let through_socketpair write read =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close a; Unix.close b)
    (fun () ->
      let writer = Thread.create write a in
      let got = read b in
      Thread.join writer;
      got)

(* every byte [Frame.write] puts on the wire *)
let raw_bytes payload =
  through_socketpair
    (fun fd ->
      Frame.write fd payload;
      Unix.shutdown fd Unix.SHUTDOWN_SEND)
    (fun fd ->
      let buf = Buffer.create 64 and chunk = Bytes.create 4096 in
      let rec drain () =
        match Unix.read fd chunk 0 4096 with
        | 0 -> Buffer.contents buf
        | n ->
          Buffer.add_subbytes buf chunk 0 n;
          drain ()
      in
      drain ())

let test_frame_bytes_pinned () =
  List.iter
    (fun (payload, wire) ->
      Alcotest.(check string)
        (Printf.sprintf "%d-byte payload on the wire" (String.length payload))
        wire (raw_bytes payload))
    [ ("", "00000000"); ("abc", "00000003abc");
      ("abcdefghijklmnopqrstuvwxyz", "0000001aabcdefghijklmnopqrstuvwxyz") ]

let big = String.init (300 * 1024) (fun i -> Char.chr (i * 7 mod 256))

let test_frame_round_trip () =
  let max = 1 lsl 20 in
  List.iter
    (fun payload ->
      let got =
        through_socketpair (fun fd -> Frame.write fd payload) (Frame.read ~max)
      in
      match got with
      | Ok p ->
        Alcotest.(check int) "payload length" (String.length payload)
          (String.length p);
        Alcotest.(check bool) "payload bytes" true (String.equal payload p)
      | Error _ -> Alcotest.fail "Frame.read refused a frame Frame.write made")
    [ ""; big ];
  (* the service protocol reads the same frames, its first byte apart *)
  List.iter
    (fun atom ->
      let got =
        through_socketpair
          (fun fd -> Pr.write_frame fd (Pr.Atom atom))
          (fun fd -> Pr.read_frame fd)
      in
      match got with
      | Ok (Pr.Atom a) ->
        Alcotest.(check bool)
          (Printf.sprintf "%d-byte atom round-trips" (String.length atom))
          true (String.equal atom a)
      | Ok _ | Error _ ->
        Alcotest.fail "Protocol.read_frame refused a frame Frame.write made")
    [ ""; String.map (fun c -> Char.chr (97 + (Char.code c mod 26))) big ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "dramstress_util"
    [
      ( "linalg",
        [
          tc "identity solve" test_lu_identity;
          tc "known 2x2 system" test_lu_known_system;
          tc "pivoting on zero diagonal" test_lu_pivoting;
          tc "singular detection" test_lu_singular;
          tc "rank-deficient residue rejected" test_lu_rank_deficient_residue;
          tc "near-singular gmin system solves" test_lu_near_singular_ok;
          tc "NaN pivot rejected" test_lu_nan_pivot_rejected;
          tc "solve does not mutate input" test_lu_does_not_mutate;
          tc "pivots judged against their own row"
            test_lu_row_scaled_threshold;
          QCheck_alcotest.to_alcotest prop_lu_row_scale_keeps_accepted;
          tc "mat_vec and mat_mul" test_mat_vec_mul;
          tc "norms" test_norms;
          tc "in-place LU matches solve" test_lu_in_place_matches_solve;
          tc "in-place LU pivoting" test_lu_in_place_pivoting;
          tc "in-place LU buffer reuse" test_lu_in_place_reuse;
          QCheck_alcotest.to_alcotest prop_lu_roundtrip;
        ] );
      ( "sparse_lu",
        [
          tc "hold pivots revalidated" test_sparse_hold_revalidates;
          tc "tied pivot re-analysed" test_sparse_tie_falls_back;
          tc "reordered pivots re-analysed" test_sparse_reordered_falls_back;
          tc "NaN keeps the analysis" test_sparse_nan_keeps_analysis;
          tc "multiplier test exact at edges" test_multiplier_test_exact;
          QCheck_alcotest.to_alcotest prop_multiplier_test_exact;
          tc "slots number the pattern in CSR order" test_sparse_slot_numbering;
          QCheck_alcotest.to_alcotest prop_sparse_matches_dense;
          QCheck_alcotest.to_alcotest prop_col_order_from_pattern;
          tc "pivots judged against their own row"
            test_sparse_row_scaled_threshold;
        ] );
      ( "lru",
        [
          tc "find/add and stats" test_lru_basic;
          tc "eviction follows recency" test_lru_eviction_order;
          tc "replace and clear" test_lru_replace_and_clear;
        ] );
      ( "par",
        [
          tc "parallel_map equals List.map" test_par_matches_list_map;
          tc "exceptions propagate" test_par_exception_propagates;
          tc "empty and singleton inputs" test_par_empty_and_singleton;
          tc "default job count" test_par_default_jobs;
          tc "chunks split/concat contract" test_par_chunks;
          tc "resolve_lanes precedence" test_resolve_lanes;
          tc "first failure wins" test_par_first_failure_wins;
          tc "failure abandons remaining items" test_par_abandons_after_failure;
          tc "worker backtrace preserved" test_par_backtrace_preserved;
          tc "outcome variant keeps every slot" test_par_outcomes_mixed;
          tc "outcome retries_of hook" test_par_outcomes_retries_hook;
          tc "env junk degrades with one warning"
            test_par_env_warning_logged_once;
        ] );
      ( "checkpoint",
        [
          tc "record/find roundtrip" test_ck_record_find_roundtrip;
          tc "resume loads prior records" test_ck_resume_loads;
          tc "truncated final line skipped" test_ck_truncated_final_line;
          tc "glued half record skipped, next replays"
            test_ck_glued_half_record;
          tc "fingerprint stability" test_ck_fingerprint_stable;
          tc "truncation at every byte offset" test_ck_truncate_every_byte;
          tc "sick middle line skipped, tail replays"
            test_ck_bad_middle_line_tail_replays;
          tc "scan counts a malformed line" test_ck_scan_counts_malformed;
          QCheck_alcotest.to_alcotest prop_ck_replay_mutated;
          QCheck_alcotest.to_alcotest prop_ck_scan_mutated;
        ] );
      ( "store",
        [
          tc "put/find, overwrite, reopen" test_store_roundtrip;
          tc "index file and engine tally" test_store_index_and_engines;
          tc "truncated tail tolerated" test_store_truncated_tail;
          tc "reopen keeps the created name" test_store_keeps_created_name;
          tc "memo across reopen" test_store_memo;
          tc "memo hit/miss/fallback" test_store_memo_hit_miss_fallback;
          tc "refused payload recomputed and repaired"
            test_store_memo_repairs_refused_payload;
          tc "fingerprint stable across domains"
            test_fingerprint_domain_stable;
          QCheck_alcotest.to_alcotest prop_fingerprint_injective;
          QCheck_alcotest.to_alcotest prop_fingerprint_stable_reserialized;
          tc "sharded roundtrip and layout autodetect"
            test_store_sharded_roundtrip;
          tc "shards on a single-file store refused"
            test_store_layout_conflict_refused;
          tc "a store is its records" test_store_is_its_records;
          tc "merge union and staleness rules" test_store_merge_rules;
        ] );
      ( "chaos",
        [
          tc "dormant by default" test_chaos_dormant_by_default;
          tc "spec parsing" test_chaos_spec_parsing;
          tc "Every-mode determinism" test_chaos_every_determinism;
          tc "Once-mode fires exactly once" test_chaos_once_mode;
          tc "injection accounting" test_chaos_injection_accounting;
          tc "environment parsing" test_chaos_env_parsing;
          tc "truncated records resumable" test_chaos_truncated_record_resume;
          tc "worker faults become Failed outcomes"
            test_chaos_worker_fault_outcomes;
        ] );
      ( "bisect",
        [
          tc "missing bracket raises" test_threshold_no_bracket;
          tc "threshold, both orientations" test_threshold_updown;
          tc "log-axis threshold" test_threshold_log;
          QCheck_alcotest.to_alcotest prop_threshold_finds_boundary;
        ] );
      ( "interp",
        [
          tc "eval and clamping" test_interp_eval;
          tc "input sorting" test_interp_unsorted_input;
          tc "duplicate abscissa" test_interp_duplicate;
          tc "of_sorted_arrays" test_interp_of_sorted_arrays;
          tc "crossings of a level" test_interp_crossings;
          tc "no crossing" test_interp_no_crossing;
          tc "curve intersections" test_interp_intersections;
          tc "map_y" test_interp_map_y;
        ] );
      ( "grid",
        [
          tc "linspace" test_linspace;
          tc "logspace" test_logspace;
          tc "arange" test_arange;
          tc "decades" test_decades;
          QCheck_alcotest.to_alcotest prop_logspace_monotone;
        ] );
      ( "stats+units",
        [
          tc "summary statistics" test_stats_basic;
          tc "empty input raises" test_stats_empty;
          tc "unit conversions and SI printing" test_units;
        ] );
      ( "frame",
        [
          tc "header then payload, bytes pinned" test_frame_bytes_pinned;
          tc "empty and 300 KiB frames round-trip" test_frame_round_trip;
        ] );
      ( "csv+plot",
        [
          tc "csv basics" test_csv_basic;
          tc "csv quoting" test_csv_quoting;
          tc "csv float formatting" test_csv_floats;
          tc "plot renders series" test_plot_renders_series;
          tc "log axis and markers" test_plot_log_axis_and_hlines;
          tc "empty plot" test_plot_empty;
          tc "character grid" test_plot_grid;
        ] );
    ]

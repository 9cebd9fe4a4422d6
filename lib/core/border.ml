module B = Dramstress_util.Bisect
module G = Dramstress_util.Grid
module D = Dramstress_defect.Defect
module U = Dramstress_util.Units
module O = Dramstress_dram.Ops
module Sc = Dramstress_dram.Sim_config
module St = Dramstress_util.Store
module Par = Dramstress_util.Par
module Tel = Dramstress_util.Telemetry

let c_skipped = Tel.Counter.make "core.border.skipped_samples"
let c_unknown_edges = Tel.Counter.make "core.border.unknown_edges"
let c_probes = Tel.Counter.make "core.border.probes"

type edge = Exact of float | Unknown of { lo : float; hi : float }

type band = { b_lo : edge; b_hi : edge }

type result =
  | Br of float
  | Faulty_band of { lo : float; hi : float }
  | Bands of band list
  | Always_faulty
  | Never_faulty
  | Unsampled

let pp_edge ppf = function
  | Exact v -> Format.fprintf ppf "%aOhm" U.pp_si v
  | Unknown { lo; hi } ->
    Format.fprintf ppf "?(%aOhm..%aOhm)" U.pp_si lo U.pp_si hi

let pp_result ppf = function
  | Br r -> Format.fprintf ppf "BR ~ %aOhm" U.pp_si r
  | Faulty_band { lo; hi } ->
    Format.fprintf ppf "faulty band %aOhm .. %aOhm" U.pp_si lo U.pp_si hi
  | Bands bands ->
    Format.fprintf ppf "faulty bands %a"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         (fun ppf { b_lo; b_hi } ->
           Format.fprintf ppf "%a .. %a" pp_edge b_lo pp_edge b_hi))
      bands
  | Always_faulty -> Format.pp_print_string ppf "faulty over whole range"
  | Never_faulty -> Format.pp_print_string ppf "not detected"
  | Unsampled -> Format.pp_print_string ppf "no point could be simulated"

(* geometric midpoint: the resistance axis is logarithmic throughout *)
let edge_mid = function Exact v -> v | Unknown { lo; hi } -> sqrt (lo *. hi)

(* ------------------------------------------------------------------ *)
(* Pure classification core                                            *)
(* ------------------------------------------------------------------ *)

(* [of_samples] turns a scanned grid into the honest band structure.
   Failed samples ([None]) are skippable: transitions are located
   between consecutive KNOWN samples only, so one pathological
   resistance narrows the evidence instead of killing the search. Every
   detected interval is reported — a detected/undetected/detected
   pattern yields two bands, not a collapsed single edge. *)
let of_samples ~refine ~r_min ~r_max samples =
  let known =
    List.filter_map (fun (r, o) -> Option.map (fun b -> (r, b)) o) samples
  in
  match known with
  | [] -> Unsampled
  | (_, first_detected) :: _ ->
    if List.for_all snd known then Always_faulty
    else if not (List.exists snd known) then Never_faulty
    else begin
      (* transitions between consecutive known samples, tagged with the
         detection state that holds after the transition *)
      let rec transitions acc = function
        | (r0, b0) :: ((r1, b1) :: _ as rest) ->
          let acc = if b0 <> b1 then (refine r0 r1, b1) :: acc else acc in
          transitions acc rest
        | [ _ ] | [] -> List.rev acc
      in
      let close bands lo hi = { b_lo = lo; b_hi = hi } :: bands in
      let bands, open_band =
        List.fold_left
          (fun (bands, open_band) (e, detected_after) ->
            if detected_after then (bands, Some e)
            else
              match open_band with
              | Some lo -> (close bands lo e, None)
              | None -> (bands, None))
          ([], if first_detected then Some (Exact r_min) else None)
          (transitions [] known)
      in
      let bands =
        match open_band with
        | Some lo -> close bands lo (Exact r_max)
        | None -> bands
      in
      match List.rev bands with
      | [] -> assert false (* some sample is detected, some is not *)
      | [ { b_lo = Exact lo; b_hi = Exact hi } ] when lo = r_min ->
        (* detected from the range start up to a single interior edge *)
        Br hi
      | [ { b_lo = Exact lo; b_hi = Exact hi } ] when hi = r_max ->
        Br lo
      | [ { b_lo = Exact lo; b_hi = Exact hi } ] -> Faulty_band { lo; hi }
      | bands -> Bands bands
    end

(* ------------------------------------------------------------------ *)
(* Search windows                                                      *)
(* ------------------------------------------------------------------ *)

module Window = struct
  type strategy = Grid | Adaptive

  type t = {
    r_min : float;
    r_max : float;
    grid_points : int;
    rel_tol : float;
    strategy : strategy;
  }

  (* the adaptive coarse pass probes this many skeleton indices, ends
     included; a window no finer than the skeleton probes every grid
     index, at which point the two strategies are the same algorithm *)
  let coarse_points = 5

  let v ?(r_min = 1e3) ?(r_max = 1e11) ?(grid_points = 13) ?(rel_tol = 0.01)
      ?(strategy = Grid) () =
    if not (r_min > 0.0 && r_max > r_min) then
      invalid_arg "Border.Window.v: need 0 < r_min < r_max";
    if grid_points < 2 then invalid_arg "Border.Window.v: grid_points < 2";
    if not (rel_tol > 0.0) then invalid_arg "Border.Window.v: rel_tol <= 0";
    { r_min; r_max; grid_points; rel_tol; strategy }

  let default = v ()

  let with_strategy strategy w = { w with strategy }

  let strategy_name = function Grid -> "grid" | Adaptive -> "adaptive"

  let strategy_of_name = function
    | "grid" -> Some Grid
    | "adaptive" -> Some Adaptive
    | _ -> None

  let provably_grid w = w.strategy = Grid || w.grid_points <= coarse_points

  let key w =
    Printf.sprintf "window=r_min=%h,r_max=%h,grid_points=%d,rel_tol=%h,scan=%s"
      w.r_min w.r_max w.grid_points w.rel_tol
      (if provably_grid w then "grid" else "adaptive")

  let pp ppf w =
    Format.fprintf ppf "%g..%g Ohm, %d grid points, %.2g rel tol [%s]"
      w.r_min w.r_max w.grid_points w.rel_tol (strategy_name w.strategy)
end

(* ------------------------------------------------------------------ *)
(* Adaptive index scan                                                 *)
(* ------------------------------------------------------------------ *)

(* [adaptive_scan] drives the sparse scan over grid INDICES, so its
   known samples land on exactly the points the grid strategy would
   simulate: probe a coarse skeleton (plus any seeded indices), then
   bisect every outcome flip between non-adjacent known samples down to
   one grid interval. Gaps whose ends agree are deliberately not
   subdivided — that is the entire saving, and the reason the grid
   strategy stays the golden oracle for bands narrower than the
   skeleton spacing. Any probe the solver loses escalates the scan to
   the full grid, so the skip pattern (and therefore the
   classification) matches the oracle exactly on failure paths. *)
let adaptive_scan ~n ~coarse ~seeds probe_many =
  if n < 1 then invalid_arg "Border.adaptive_scan: n < 1";
  let tbl = Hashtbl.create (4 * n) in
  let ask idxs =
    let idxs =
      List.sort_uniq Int.compare
        (List.filter
           (fun i -> i >= 0 && i < n && not (Hashtbl.mem tbl i))
           idxs)
    in
    if idxs = [] then 0
    else begin
      List.iter (fun (i, v) -> Hashtbl.replace tbl i v) (probe_many idxs);
      List.length idxs
    end
  in
  let coarse = Int.max 2 (Int.min coarse n) in
  let skeleton =
    if n = 1 then [ 0 ]
    else List.init coarse (fun k -> k * (n - 1) / (coarse - 1))
  in
  ignore (ask (skeleton @ seeds));
  let known () =
    List.sort
      (fun (i, _) (j, _) -> Int.compare i j)
      (Hashtbl.fold
         (fun i v acc -> match v with Some b -> (i, b) :: acc | None -> acc)
         tbl [])
  in
  let rec bisect_flips () =
    let rec mids acc = function
      | (i, bi) :: ((j, bj) :: _ as rest) ->
        let acc =
          if bi <> bj && j > i + 1 then ((i + j) / 2) :: acc else acc
        in
        mids acc rest
      | [ _ ] | [] -> acc
    in
    if ask (mids [] (known ())) > 0 then bisect_flips ()
  in
  bisect_flips ();
  if Hashtbl.fold (fun _ v acc -> acc || v = None) tbl false then
    ignore (ask (List.init n Fun.id));
  List.sort
    (fun (i, _) (j, _) -> Int.compare i j)
    (Hashtbl.fold (fun i v acc -> (i, v) :: acc) tbl [])

(* ------------------------------------------------------------------ *)
(* Electrical search                                                   *)
(* ------------------------------------------------------------------ *)

let encode_edge = function
  | Exact v -> Printf.sprintf "e%h" v
  | Unknown { lo; hi } -> Printf.sprintf "u%h,%h" lo hi

let decode_edge s =
  let fl x = float_of_string_opt x in
  if s = "" then None
  else
    match s.[0] with
    | 'e' -> Option.map (fun v -> Exact v) (fl (String.sub s 1 (String.length s - 1)))
    | 'u' -> begin
      match String.split_on_char ',' (String.sub s 1 (String.length s - 1)) with
      | [ lo; hi ] -> begin
        match (fl lo, fl hi) with
        | Some lo, Some hi -> Some (Unknown { lo; hi })
        | _, _ -> None
      end
      | _ -> None
    end
    | _ -> None

let encode_result = function
  | Br v -> Printf.sprintf "br %h" v
  | Faulty_band { lo; hi } -> Printf.sprintf "band %h %h" lo hi
  | Bands bands ->
    "bands "
    ^ String.concat ";"
        (List.map
           (fun { b_lo; b_hi } ->
             encode_edge b_lo ^ ":" ^ encode_edge b_hi)
           bands)
  | Always_faulty -> "always"
  | Never_faulty -> "never"
  | Unsampled -> "unsampled"

let decode_result s =
  match String.split_on_char ' ' s with
  | [ "always" ] -> Some Always_faulty
  | [ "never" ] -> Some Never_faulty
  | [ "unsampled" ] -> Some Unsampled
  | [ "br"; v ] -> Option.map (fun v -> Br v) (float_of_string_opt v)
  | [ "band"; lo; hi ] -> begin
    match (float_of_string_opt lo, float_of_string_opt hi) with
    | Some lo, Some hi -> Some (Faulty_band { lo; hi })
    | _, _ -> None
  end
  | [ "bands"; bands ] -> begin
    let decode_band b =
      match String.split_on_char ':' b with
      | [ lo; hi ] -> begin
        match (decode_edge lo, decode_edge hi) with
        | Some b_lo, Some b_hi -> Some { b_lo; b_hi }
        | _, _ -> None
      end
      | _ -> None
    in
    let decoded = List.map decode_band (String.split_on_char ';' bands) in
    if List.for_all Option.is_some decoded then
      Some (Bands (List.filter_map Fun.id decoded))
    else None
  end
  | _ -> None

let equal_result a b = String.equal (encode_result a) (encode_result b)

let encode_probe = function Some true -> "1" | Some false -> "0" | None -> "x"

let decode_probe = function
  | "1" -> Some (Some true)
  | "0" -> Some (Some false)
  | "x" -> Some None
  | _ -> None

let search ?config ?store ?window:(w = Window.default)
    ?(hint = []) ~stress ~kind ~placement cond =
  let cfg = Option.value config ~default:Sc.default in
  (* everything a single probe's outcome depends on; the window joins
     only the whole-result key (a probe at resistance r is the same
     simulation whatever window asked for it) *)
  let config_key = lazy (Sc.key cfg) in
  let key layer fields =
    Lazy.force config_key layer ~stress ~kind ~placement
      (("detect=" ^ Detection.encode cond) :: fields)
  in
  let compute () =
    let detect r =
      Tel.Counter.incr c_probes;
      Detection.detects ~config:cfg ~stress ~defect:(D.v kind placement r)
        cond
    in
    let grid =
      Array.of_list (G.logspace w.Window.r_min w.Window.r_max w.Window.grid_points)
    in
    let n = Array.length grid in
    (* [scan rs] simulates each resistance of [rs]: the resistances are
       lanes of ensemble-width chunks ([O.run_batch], {!Sc.sweep_lanes})
       judged per lane. The refinement bisections below walk one
       resistance trajectory each, and caching makes revisits free. *)
    let scan rs =
      let defects = List.map (fun r -> D.v kind placement r) rs in
      let results =
        List.concat
          (Par.parallel_map ~jobs:(Sc.resolve_jobs cfg)
             (fun chunk ->
               let lanes =
                 List.map
                   (fun defect ->
                     { O.defect = Some defect;
                       vc_init = Detection.initial_vc cond ~stress ~defect })
                   chunk
               in
               Tel.Counter.add c_probes (List.length lanes);
               match
                 O.run_batch ~config:cfg ~stress ~lanes (Detection.ops cond)
               with
               | res -> res
               | exception e -> List.map (fun _ -> Error e) lanes)
             (Par.chunks ~size:(Sc.sweep_lanes cfg) defects))
      in
      List.map2
        (fun r res ->
          match res with
          | Ok outcome -> (r, Some (Detection.judge cond outcome))
          (* only solver failures are skippable; anything else is a bug
             and must propagate. A deadline is not one: a probe it cuts
             short says nothing about the defect, so it fails the whole
             search rather than leaving a skipped sample in a stored
             result. *)
          | Error e when O.is_solver_failure e ->
            Tel.Counter.incr c_skipped;
            (r, None)
          | Error e -> raise e)
        rs results
    in
    let samples =
      match w.Window.strategy with
      | Window.Grid -> scan (Array.to_list grid)
      | Window.Adaptive ->
        (* the adaptive scan probes a sparse subset of the SAME grid the
           oracle would, so any sample it does take is bit-identical to
           the grid strategy's. Per-probe store records let an
           interrupted refinement resume re-simulating only the probes
           it had not finished. *)
        let probe_key i =
          key "border.probe" [ Printf.sprintf "r=%h" grid.(i) ]
        in
        let probe_many idxs =
          let cached, missing =
            match store with
            | None -> ([], idxs)
            | Some st ->
              List.partition_map
                (fun i ->
                  match
                    Option.bind (St.find st ~key:(probe_key i)) decode_probe
                  with
                  | Some v -> Either.Left (i, v)
                  | None -> Either.Right i)
                idxs
          in
          let fresh =
            List.map2
              (fun i (_, v) -> (i, v))
              missing
              (scan (List.map (fun i -> grid.(i)) missing))
          in
          (match store with
          | Some st ->
            List.iter
              (fun (i, v) ->
                St.put st ~key:(probe_key i)
                  ~descr:(Printf.sprintf "border probe @ %h Ohm" grid.(i))
                  (encode_probe v))
              fresh
          | None -> ());
          cached @ fresh
        in
        let bracket_index r =
          (* grid interval containing r: seeds the adjacent index pair *)
          let t =
            float_of_int (n - 1)
            *. log (r /. w.Window.r_min)
            /. log (w.Window.r_max /. w.Window.r_min)
          in
          let i = int_of_float (Float.floor t) in
          Int.max 0 (Int.min (n - 2) i)
        in
        let seeds =
          List.concat_map
            (fun r ->
              if r > 0.0 then
                let i = bracket_index r in
                [ i; i + 1 ]
              else [])
            hint
        in
        let indexed =
          adaptive_scan ~n ~coarse:Window.coarse_points ~seeds probe_many
        in
        List.map (fun (i, v) -> (grid.(i), v)) indexed
    in
    let refine_raw r0 r1 =
      (* the bisection revisits resistances near the transition; if one
         of them is itself unsimulatable the edge position degrades to
         the bracketing known samples instead of aborting the search.
         Note the bisection is over a boolean detect predicate, so
         Illinois/regula-falsi acceleration does not apply: there is no
         continuous residual to interpolate, only a sign. *)
      match B.threshold_log ~rel_tol:w.Window.rel_tol detect r0 r1 with
      | v -> Exact v
      | exception e when O.is_solver_failure e ->
        Tel.Counter.incr c_unknown_edges;
        Unknown { lo = r0; hi = r1 }
    in
    let refine =
      match (w.Window.strategy, store) with
      | Window.Adaptive, Some st ->
        fun r0 r1 ->
          (* per-edge memo: a resumed adaptive search replays finished
             edge refinements from the store and re-simulates only
             the unfinished ones *)
          St.memo st
            ~key:
              (key "border.edge"
                 [ Printf.sprintf "lo=%h,hi=%h,rel_tol=%h" r0 r1
                     w.Window.rel_tol ])
            ~descr:(Printf.sprintf "border edge %h..%h Ohm" r0 r1)
            ~encode:encode_edge ~decode:decode_edge
            (fun () -> refine_raw r0 r1)
      | _ -> refine_raw
    in
    of_samples ~refine ~r_min:w.Window.r_min ~r_max:w.Window.r_max samples
  in
  match store with
  | None -> compute ()
  | Some st ->
    let descr =
      Format.asprintf "border %a/%a under %a" D.pp_kind kind D.pp_placement
        placement Dramstress_dram.Stress.pp stress
    in
    St.memo st
      ~key:(key "border.search" [ Window.key w ])
      ~descr ~encode:encode_result ~decode:decode_result compute

(* ------------------------------------------------------------------ *)
(* Coverage arithmetic                                                 *)
(* ------------------------------------------------------------------ *)

let covered_ranges polarity result ~r_min ~r_max =
  match (result, polarity) with
  | (Never_faulty | Unsampled), (D.High_r_fails | D.Low_r_fails) -> []
  | Always_faulty, (D.High_r_fails | D.Low_r_fails) -> [ (r_min, r_max) ]
  | Faulty_band { lo; hi }, (D.High_r_fails | D.Low_r_fails) -> [ (lo, hi) ]
  | Bands bands, (D.High_r_fails | D.Low_r_fails) ->
    List.map (fun b -> (edge_mid b.b_lo, edge_mid b.b_hi)) bands
  | Br r, D.High_r_fails -> [ (r, r_max) ]
  | Br r, D.Low_r_fails -> [ (r_min, r) ]

let notional_min = 1e3
let notional_max = 1e11

let coverage_width polarity result =
  List.fold_left
    (fun acc (lo, hi) ->
      if hi > lo && lo > 0.0 then acc +. log10 (hi /. lo) else acc)
    0.0
    (covered_ranges polarity result ~r_min:notional_min ~r_max:notional_max)

let improvement ?window polarity ~nominal ~stressed =
  match (nominal, stressed) with
  | Br a, Br b -> begin
    match polarity with
    | D.High_r_fails -> Some (a /. b)
    | D.Low_r_fails -> Some (b /. a)
  end
  | (Never_faulty | Unsampled), _ | _, (Never_faulty | Unsampled) -> None
  | (Br _ | Faulty_band _ | Bands _ | Always_faulty), _ ->
    (* mixed result shapes: compare covered widths in log decades, the
       same axis [coverage_width] scores on — a linear hi-lo ratio here
       would contradict the paper's log-resistance axis and make the
       mixed-shape improvement incommensurable with the BR-ratio case.
       The nominal width must clear the window's edge-location
       tolerance before a ratio is meaningful: edges are only located
       to [rel_tol] relative error, so a nominal coverage narrower than
       one tolerance step in log space is pure refinement noise. *)
    let tol = (Option.value window ~default:Window.default).Window.rel_tol in
    let floor_ = log10 (1.0 +. tol) in
    let a = coverage_width polarity nominal in
    let b = coverage_width polarity stressed in
    if a > floor_ then Some (b /. a) else None

let better polarity a b =
  coverage_width polarity a > coverage_width polarity b +. 1e-9

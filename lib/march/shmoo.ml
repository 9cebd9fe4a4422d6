module S = Dramstress_dram.Stress
module Sc = Dramstress_dram.Sim_config
module O = Dramstress_dram.Ops
module C = Dramstress_core
module D = Dramstress_defect.Defect
module St = Dramstress_util.Store
module Tel = Dramstress_util.Telemetry

let h_point =
  Tel.Histogram.make ~unit_:"ms" ~lo:1e-2 ~hi:1e6 ~buckets:40
    "core.sweep.point_ms"

let c_errored = Tel.Counter.make "march.shmoo.errored_points"

type outcome = Pass | Fail | Invalid | Errored

let encode_outcome = function
  | Pass -> "p"
  | Fail -> "f"
  | Invalid -> "i"
  | Errored -> "e"

let decode_outcome = function
  | "p" -> Some Pass
  | "f" -> Some Fail
  | "i" -> Some Invalid
  | "e" -> Some Errored
  | _ -> None

type t = {
  x_axis : S.axis;
  x_values : float list;
  y_axis : S.axis;
  y_values : float list;
  grid : outcome array array;
  defect : Dramstress_defect.Defect.t;
}

let generate ?(config = Sc.default) ?store ~stress ~defect ~detection
    ~x:(x_axis, x_values) ~y:(y_axis, y_values) () =
  if x_values = [] || y_values = [] then
    invalid_arg "Shmoo.generate: empty axis";
  (* checked up front: every cell maps [Invalid_argument] to [Invalid],
     which would turn a bad config into a plot of inoperable SCs *)
  Sc.validate config;
  let key = Sc.key config in
  let cell sc () =
    match C.Detection.detects ~config ~stress:sc ~defect detection with
    | true -> Fail
    | false -> Pass
    | exception Invalid_argument _ -> Invalid
    | exception e when O.is_solver_failure e ->
      (* the SC is nominally operable but the solver cannot follow it
         even degraded: an honest separate verdict, not a silent Pass or
         Invalid *)
      Tel.Counter.incr c_errored;
      Errored
  in
  let point (yv, xv) =
    let sc = S.set (S.set stress x_axis xv) y_axis yv in
    Tel.Histogram.time_ms h_point (fun () ->
        Tel.with_span "shmoo.point"
          ~attrs:(fun () -> [ ("x", Tel.Float xv); ("y", Tel.Float yv) ])
          (fun () ->
            match store with
            | None -> cell sc ()
            | Some st ->
              St.memo st
                ~key:
                  (key "shmoo" ~stress:sc
                     ~kind:defect.D.kind ~placement:defect.D.placement
                     [ Printf.sprintf "r=%h" defect.D.r;
                       "detect=" ^ C.Detection.encode detection ])
                ~descr:(Printf.sprintf "shmoo cell x=%g y=%g" xv yv)
                ~encode:encode_outcome ~decode:decode_outcome (cell sc)))
  in
  (* flatten the grid so all y*x points share one domain pool instead of
     parallelizing row by row *)
  let coords =
    List.concat_map (fun yv -> List.map (fun xv -> (yv, xv)) x_values) y_values
  in
  let outcomes =
    Array.of_list
      (Dramstress_util.Par.parallel_map ~jobs:(Sc.resolve_jobs config) point
         coords)
  in
  let n_x = List.length x_values in
  let grid =
    Array.init (List.length y_values) (fun yi ->
        Array.init n_x (fun xi -> outcomes.((yi * n_x) + xi)))
  in
  { x_axis; x_values; y_axis; y_values; grid; defect }

let fail_fraction shmoo =
  let fails = ref 0 and valid = ref 0 in
  Array.iter
    (Array.iter (fun o ->
         match o with
         | Fail ->
           incr fails;
           incr valid
         | Pass -> incr valid
         | Invalid | Errored -> ()))
    shmoo.grid;
  if !valid = 0 then 0.0 else float_of_int !fails /. float_of_int !valid

let render shmoo =
  let xs = Array.of_list shmoo.x_values in
  let ys = Array.of_list shmoo.y_values in
  let title =
    Format.asprintf
      "Shmoo plot: %a (x) vs %a (y), defect %a ['.' pass, 'X' fail]"
      S.pp_axis shmoo.x_axis S.pp_axis shmoo.y_axis
      Dramstress_defect.Defect.pp shmoo.defect
  in
  Dramstress_util.Ascii_plot.render_grid ~title
    ~rows:(Format.asprintf "%a" S.pp_axis shmoo.y_axis, Array.length ys)
    ~cols:(Format.asprintf "%a" S.pp_axis shmoo.x_axis, Array.length xs)
    ~row_label:(fun r -> Printf.sprintf "%.3g" ys.(r))
    ~col_label:(fun c -> Printf.sprintf "%.3g " xs.(c))
    (fun r c ->
      match shmoo.grid.(r).(c) with
      | Pass -> '.'
      | Fail -> 'X'
      | Invalid -> '?'
      | Errored -> '!')

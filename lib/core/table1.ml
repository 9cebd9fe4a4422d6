module S = Dramstress_dram.Stress
module Sc = Dramstress_dram.Sim_config
module Ax = Dramstress_stressaxis.Stressaxis
module D = Dramstress_defect.Defect
module U = Dramstress_util.Units
module Tel = Dramstress_util.Telemetry

let h_point =
  Tel.Histogram.make ~unit_:"ms" ~lo:1e-2 ~hi:1e6 ~buckets:40
    "core.sweep.point_ms"

type row = {
  defect_id : string;
  placement : D.placement;
  evaluation : Sc_eval.t;
}

type t = {
  rows : row list;
  failures : (string * D.placement) Dramstress_util.Outcome.failure list;
  nominal : S.t;
}

let generate ?(config = Sc.default) ?store ?(entries = D.catalog)
    ?(placements = [ D.True_bl; D.Comp_bl ]) ?axes () =
  (* one work item per (defect, placement) row; rows are independent.
     A row whose evaluation fails outright becomes a [Failed] slot so
     one pathological defect cannot sink the whole table. *)
  let work =
    List.concat_map
      (fun (entry : D.entry) ->
        List.map (fun placement -> (entry, placement)) placements)
      entries
  in
  let outcomes =
    Dramstress_util.Par.parallel_map_outcomes
      ~jobs:(Sc.resolve_jobs config)
      ~retries_of:Dramstress_dram.Ops.retries_of
      (fun ((entry : D.entry), placement) ->
        Tel.Histogram.time_ms h_point (fun () ->
            Tel.with_span "table1.row"
              ~attrs:(fun () ->
                [ ("defect", Tel.Str entry.D.id);
                  ("placement",
                   Tel.Str (Format.asprintf "%a" D.pp_placement placement)) ])
              (fun () ->
                {
                  defect_id = entry.D.id;
                  placement;
                  evaluation =
                    Sc_eval.evaluate ~config ?store ?axes
                      ~nominal:S.nominal ~kind:entry.D.kind ~placement ();
                })))
      work
  in
  let rows, failures =
    Dramstress_util.Outcome.partition
      (List.map
         (Dramstress_util.Outcome.map_point
            (fun ((entry : D.entry), placement) -> (entry.D.id, placement)))
         outcomes)
  in
  { rows; failures; nominal = S.nominal }

let dir_arrow probe =
  match probe.Stressor.verdict with
  | Stressor.Increase -> "+"
  | Stressor.Decrease -> "-"
  | Stressor.Neutral -> "="

(* direction columns come from whatever axes were actually probed; an
   empty table falls back to the paper's three directed axes so the
   header stays stable *)
let probed_axes table =
  match table.rows with
  | row :: _ ->
    List.map (fun p -> p.Stressor.axis) row.evaluation.Sc_eval.probes
  | [] -> [ S.Cycle_time; S.Temperature; S.Supply_voltage ]

let axis_arrow e axis =
  match
    List.find_opt (fun p -> p.Stressor.axis = axis) e.Sc_eval.probes
  with
  | Some p -> dir_arrow p
  | None -> "?"

let edge_string = function
  | Border.Exact v -> U.si_string v
  | Border.Unknown { lo; hi } ->
    Printf.sprintf "?(%s..%s)" (U.si_string lo) (U.si_string hi)

let br_string = function
  | Border.Br r -> U.si_string r
  | Border.Faulty_band { lo; hi } ->
    Printf.sprintf "%s..%s" (U.si_string lo) (U.si_string hi)
  | Border.Bands bands ->
    String.concat "+"
      (List.map
         (fun { Border.b_lo; b_hi } ->
           Printf.sprintf "%s..%s" (edge_string b_lo) (edge_string b_hi))
         bands)
  | Border.Always_faulty -> "all R"
  | Border.Never_faulty -> "none"
  | Border.Unsampled -> "unsampled"

let render table =
  let buf = Buffer.create 2048 in
  let axes = probed_axes table in
  let cols =
    List.map
      (fun a ->
        let name = Ax.name_of_axis a in
        (a, name, Int.max 4 (String.length name)))
      axes
  in
  let pad w s =
    if String.length s >= w then s ^ " "
    else s ^ String.make (w - String.length s + 1) ' '
  in
  let dir_cells cell =
    String.concat "" (List.map (fun (a, name, w) -> pad w (cell a name)) cols)
  in
  Buffer.add_string buf
    (Format.asprintf
       "Table 1 -- ST optimization results (nominal SC: %a)\n" S.pp
       table.nominal);
  Buffer.add_string buf
    (Printf.sprintf "%-6s %-6s %-12s %s%-12s %-8s %s\n"
       "Defect" "Place" "Nom. border"
       (dir_cells (fun _ name -> name))
       "Str. border" "Coverage" "Str. detection condition");
  Buffer.add_string buf (String.make 100 '-' ^ "\n");
  List.iter
    (fun row ->
      let e = row.evaluation in
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-6s %-12s %s%-12s %-8s %s\n"
           row.defect_id
           (Format.asprintf "%a" D.pp_placement row.placement)
           (br_string e.Sc_eval.nominal_br)
           (dir_cells (fun a _ -> axis_arrow e a))
           (br_string e.Sc_eval.stressed_br)
           (match e.Sc_eval.improvement with
           | Some f -> Printf.sprintf "%.2fx" f
           | None -> "n/a")
           (Detection.to_string e.Sc_eval.stressed_detection)))
    table.rows;
  Buffer.add_string buf
    "\nDirections: + drive the stress up, - drive it down, = no effect.\n";
  if table.failures <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf "\n%d row(s) failed to evaluate:\n"
         (List.length table.failures));
    List.iter
      (fun f ->
        let id, placement = f.Dramstress_util.Outcome.point in
        Buffer.add_string buf
          (Printf.sprintf "  %s %s: %s (after %d retries)\n" id
             (Format.asprintf "%a" D.pp_placement placement)
             (Dramstress_util.Outcome.error_message f)
             f.Dramstress_util.Outcome.retries))
      table.failures
  end;
  Buffer.contents buf

let to_csv table =
  let axes = probed_axes table in
  let header =
    [ "defect"; "placement"; "nominal_br_ohm" ]
    @ List.map (fun a -> Ax.name_of_axis a ^ "_dir") axes
    @ [ "stressed_br_ohm"; "improvement"; "stressed_detection" ]
  in
  let edge_csv = function
    | Border.Exact v -> Printf.sprintf "%.6g" v
    | Border.Unknown { lo; hi } -> Printf.sprintf "?%.6g..%.6g" lo hi
  in
  let br_csv = function
    | Border.Br r -> Printf.sprintf "%.6g" r
    | Border.Faulty_band { lo; hi } -> Printf.sprintf "%.6g..%.6g" lo hi
    | Border.Bands bands ->
      String.concat "+"
        (List.map
           (fun { Border.b_lo; b_hi } ->
             Printf.sprintf "%s..%s" (edge_csv b_lo) (edge_csv b_hi))
           bands)
    | Border.Always_faulty -> "always"
    | Border.Never_faulty -> "never"
    | Border.Unsampled -> "unsampled"
  in
  let rows =
    List.map
      (fun row ->
        let e = row.evaluation in
        [ row.defect_id;
          Format.asprintf "%a" D.pp_placement row.placement;
          br_csv e.Sc_eval.nominal_br ]
        @ List.map (axis_arrow e) axes
        @ [ br_csv e.Sc_eval.stressed_br;
            (match e.Sc_eval.improvement with
            | Some f -> Printf.sprintf "%.4g" f
            | None -> "n/a");
            Detection.to_string e.Sc_eval.stressed_detection ])
      table.rows
  in
  Dramstress_util.Csvout.to_string ~header rows

type row_diff = {
  a_row : row;
  b_row : row;
  same_sc : bool;
  same_detection : bool;
  nominal_d : float list option;
  stressed_d : float list option;
}

(* the stressed SC with each probe's direction, and both synthesized
   detection conditions *)
let sc_signature (e : Sc_eval.t) =
  ( S.key e.Sc_eval.stressed,
    List.map (fun p -> (p.Stressor.axis, p.Stressor.verdict)) e.Sc_eval.probes )

let detections (e : Sc_eval.t) =
  ( Detection.to_string e.Sc_eval.nominal_detection,
    Detection.to_string e.Sc_eval.stressed_detection )

let compare a b =
  List.filter_map
    (fun ra ->
      List.find_opt
        (fun rb ->
          rb.defect_id = ra.defect_id && rb.placement = ra.placement)
        b.rows
      |> Option.map (fun rb ->
             let ea = ra.evaluation and eb = rb.evaluation in
             let same_sc = sc_signature ea = sc_signature eb in
             {
               a_row = ra;
               b_row = rb;
               same_sc;
               same_detection = detections ea = detections eb;
               nominal_d =
                 Border.edge_distances ea.Sc_eval.nominal_br
                   eb.Sc_eval.nominal_br;
               stressed_d =
                 (if same_sc then
                    Border.edge_distances ea.Sc_eval.stressed_br
                      eb.Sc_eval.stressed_br
                  else None);
             }))
    a.rows

let worst = function
  | Some ds ->
    Some (List.fold_left (fun acc d -> Float.max acc (Float.abs d)) 0.0 ds)
  | None -> None

module O = Dramstress_dram.Ops
module S = Dramstress_dram.Stress
module D = Dramstress_defect.Defect
module A = Dramstress_util.Ascii_plot

let glyphs = [| '1'; '2'; '3'; '4'; '5'; '6'; '7'; '8' |]

let plane_chart ~title (plane : Plane.t) =
  let series_of_curve i (c : Plane.curve) =
    A.series ~glyph:glyphs.(i mod Array.length glyphs) c.Plane.label
      (List.map (fun { Plane.r; vc } -> (r, vc)) c.Plane.points)
  in
  let vsa_series =
    A.series ~glyph:'S' "Vsa"
      (List.map
         (fun { Plane.r_sa; vsa } ->
           ( r_sa,
             match vsa with
             | Plane.Vsa v -> v
             | Plane.Reads_all_1 -> 0.0
             | Plane.Reads_all_0 -> plane.Plane.stress.S.vdd ))
         plane.Plane.vsa_curve)
  in
  A.render ~x_axis:A.Log10 ~x_label:"defect resistance (Ohm)"
    ~y_label:"Vc (V)"
    ~hlines:[ ("Vmp", plane.Plane.vmp) ]
    ~title
    (List.mapi series_of_curve plane.Plane.curves @ [ vsa_series ])

let figure2 ?config ?store ?rops ~stress ~kind
    ~placement () =
  let w0 =
    Plane.write_plane ?config ?store ?rops ~stress ~kind
      ~placement ~op:O.W0 ()
  in
  let w1 =
    Plane.write_plane ?config ?store ?rops ~stress ~kind
      ~placement ~op:O.W1 ()
  in
  let r =
    Plane.read_plane ?config ?store ?rops ~stress ~kind
      ~placement ()
  in
  let br_line =
    match Plane.br_geometric w0 with
    | Some br ->
      Format.asprintf
        "geometric BR (intersection of (2) w0 with Vsa): %aOhm\n"
        Dramstress_util.Units.pp_si br
    | None -> "geometric BR: no crossing in the sampled range\n"
  in
  let failures =
    w0.Plane.failures @ w1.Plane.failures @ r.Plane.failures
  in
  let failure_lines =
    if failures = [] then []
    else
      [
        Printf.sprintf "%d point(s) failed and are omitted above:"
          (List.length failures)
        :: List.map
             (fun f ->
               Format.asprintf "  R = %aOhm: %s"
                 Dramstress_util.Units.pp_si f.Dramstress_util.Outcome.point
                 (Dramstress_util.Outcome.error_message f))
             failures
        |> String.concat "\n";
      ]
  in
  ( String.concat "\n"
      ([
         Format.asprintf "Result planes for defect %a (%a) at %a" D.pp_kind
           kind D.pp_placement placement S.pp stress;
         plane_chart ~title:"(a) Plane of w0" w0;
         plane_chart ~title:"(b) Plane of w1" w1;
         plane_chart ~title:"(c) Plane of r" r;
         br_line;
       ]
      @ failure_lines),
    failures )

let figure_st_panels ?config ~stress ~axis ~values ~kind ~placement () =
  let analysis_r = Stressor.analysis_r in
  let defect = D.v kind placement analysis_r in
  let victim = D.logical_victim kind placement in
  let victim_op = if victim = 0 then O.W0 else O.W1 in
  let physical_target = D.victim_bit kind in
  let label v = Format.asprintf "%a=%g" S.pp_axis axis v in
  let write_series =
    List.mapi
      (fun i v ->
        let st = S.set stress axis v in
        let vc_init = if physical_target = 0 then st.S.vdd else 0.0 in
        A.series ~glyph:glyphs.(i mod Array.length glyphs) (label v)
          (Stressor.trace_vc ?config ~stress:st ~defect ~vc_init victim_op))
      values
  in
  let read_series =
    List.mapi
      (fun i v ->
        let st = S.set stress axis v in
        let vsa =
          match Plane.vsa ?config ~stress:st ~defect () with
          | Plane.Vsa x -> x
          | Plane.Reads_all_1 -> 0.0
          | Plane.Reads_all_0 -> st.S.vdd
        in
        (* seed marginally on the faulty side of the threshold, the
           paper's +-0.1..0.2 V *)
        let seed =
          if physical_target = 0 then Float.min st.S.vdd (vsa +. 0.1)
          else Float.max 0.0 (vsa -. 0.1)
        in
        A.series ~glyph:glyphs.(i mod Array.length glyphs) (label v)
          (Stressor.trace_vc ?config ~stress:st ~defect ~vc_init:seed O.R))
      values
  in
  String.concat "\n"
    [
      Format.asprintf
        "Stress panels for %a on defect %a (%a), R = %aOhm" S.pp_axis axis
        D.pp_kind kind D.pp_placement placement Dramstress_util.Units.pp_si
        analysis_r;
      A.render ~x_label:"time (s)" ~y_label:"Vc (V)"
        ~title:
          (Format.asprintf "Vc during a w%d operation" victim)
        write_series;
      A.render ~x_label:"time (s)" ~y_label:"Vc (V)"
        ~title:"Vc during a read of a marginal cell" read_series;
    ]

let plane_csv (plane : Plane.t) =
  let header =
    "r_ohm"
    :: List.map (fun (c : Plane.curve) -> c.Plane.label) plane.Plane.curves
    @ [ "vsa" ]
  in
  let rows =
    List.map
      (fun r ->
        let curve_value (c : Plane.curve) =
          match
            List.find_opt (fun p -> p.Plane.r = r) c.Plane.points
          with
          | Some p -> Printf.sprintf "%.6g" p.Plane.vc
          | None -> ""
        in
        let vsa_value =
          match
            List.find_opt (fun p -> p.Plane.r_sa = r) plane.Plane.vsa_curve
          with
          | Some { Plane.vsa = Plane.Vsa v; _ } -> Printf.sprintf "%.6g" v
          | Some { Plane.vsa = Plane.Reads_all_1; _ } -> "all1"
          | Some { Plane.vsa = Plane.Reads_all_0; _ } -> "all0"
          | None -> ""
        in
        (Printf.sprintf "%.6g" r
        :: List.map curve_value plane.Plane.curves)
        @ [ vsa_value ])
      plane.Plane.rops
  in
  Dramstress_util.Csvout.to_string ~header rows

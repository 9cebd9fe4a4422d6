(* Device characterization: the access transistor's transfer
   characteristic across temperature, the raw material of the paper's
   stress mechanisms, evaluated straight from the device model.

   Run with: dune exec examples/device_curves.exe *)

module M = Dramstress_circuit.Mosfet
module T = Dramstress_dram.Tech
module A = Dramstress_util.Ascii_plot

(* Id(Vgs) at Vds = 2.4 V, source grounded *)
let transfer_curve ~temp_c =
  let temp = Dramstress_util.Units.celsius_to_kelvin temp_c in
  List.map
    (fun vgs -> (vgs, (M.ids T.default.T.access ~temp ~vgs ~vds:2.4).M.id))
    (Dramstress_util.Grid.linspace 0.0 3.2 33)

let () =
  print_endline
    "Access-transistor transfer characteristic Id(Vgs) at Vds = 2.4 V";
  let series =
    List.map
      (fun (glyph, temp_c) ->
        A.series ~glyph
          (Printf.sprintf "T=%+.0fC" temp_c)
          (List.map (fun (v, i) -> (v, i *. 1e6)) (transfer_curve ~temp_c)))
      [ ('1', -33.0); ('2', 27.0); ('3', 87.0) ]
  in
  print_string
    (A.render ~x_label:"Vgs (V)" ~y_label:"Id (uA)"
       ~title:"linear scale: mobility -- cold is stronger when on" series);
  (* the same data on a log axis shows the sub-threshold leakage
     reversing the ordering: hot leaks orders of magnitude more *)
  let log_series =
    List.map
      (fun s ->
        {
          s with
          A.pts =
            List.filter_map
              (fun (v, i) -> if i > 1e-8 then Some (v, log10 i) else None)
              s.A.pts;
        })
      series
  in
  print_string
    (A.render ~x_label:"Vgs (V)" ~y_label:"log10 Id (uA)"
       ~title:"log scale: sub-threshold -- hot leaks more when off"
       log_series);
  print_endline
    "Both orderings at once are the paper's competing temperature\n\
     mechanisms (Section 4.2): strong-inversion current falls with T\n\
     while leakage rises with T."

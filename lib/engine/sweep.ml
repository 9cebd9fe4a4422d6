module C = Dramstress_circuit

type point = { value : float; voltages : float array; unknowns : float array }

type t = {
  source : string;
  points : point list;
  compiled : C.Netlist.compiled;
}

let run compiled ?(opts = Options.default) ~source ~values () =
  let sys = Mna.make compiled in
  let reactive = Mna.dc_reactive sys in
  let x = ref (Mna.pack sys (Array.make (Mna.n_nodes sys) 0.0)) in
  (* all stepped systems share the layout, so one workspace serves the
     whole sweep *)
  let ws = Mna.make_workspace sys in
  let points =
    List.map
      (fun value ->
        let stepped = C.Netlist.with_dc_source compiled source value in
        let sys_v = Mna.make stepped in
        let x_new =
          try Newton.solve sys_v ~ws ~opts ~t_now:0.0 ~reactive ~x0:!x ()
          with Newton.No_convergence _ ->
            (* continuation failed: homotopy from strong regularization *)
            let rec homotopy gmin x0 =
              let opts' = { opts with Options.gmin } in
              let x' =
                Newton.solve sys_v ~ws ~opts:opts' ~t_now:0.0 ~reactive ~x0 ()
              in
              if gmin <= opts.Options.gmin *. 1.001 then x'
              else homotopy (Float.max opts.Options.gmin (gmin /. 100.0)) x'
            in
            homotopy 1e-3 !x
        in
        x := x_new;
        { value; voltages = Mna.voltages sys_v ws x_new; unknowns = x_new })
      values
  in
  { source; points; compiled }

let node_curve sweep name =
  let id = C.Netlist.compiled_node sweep.compiled name in
  List.map (fun p -> (p.value, p.voltages.(id))) sweep.points

let source_current_curve sweep name =
  let sys = Mna.make sweep.compiled in
  List.map
    (fun p -> (p.value, Mna.branch_current sys p.unknowns name))
    sweep.points

module C = Dramstress_circuit

let solve compiled ?(opts = Options.default) ?(guess = []) () =
  let sys = Mna.make compiled in
  let v0 = Array.make (Mna.n_nodes sys) 0.0 in
  List.iter
    (fun (name, v) ->
      match
        (try Some (C.Netlist.compiled_node compiled name) with Not_found -> None)
      with
      | Some n -> v0.(n) <- v
      | None -> invalid_arg ("Dcop.solve: unknown node " ^ name))
    guess;
  let x0 = Mna.pack sys v0 in
  let reactive = Mna.dc_reactive sys in
  let ws = Mna.make_workspace sys in
  let attempt opts = Newton.solve sys ~ws ~opts ~t_now:0.0 ~reactive ~x0 () in
  let x =
    try attempt opts
    with Newton.No_convergence _ ->
      (* gmin stepping: solve with a strong shunt, reuse as the guess for
         progressively weaker regularization *)
      let rec step gmin x_prev =
        let opts' = { opts with gmin } in
        let x =
          Newton.solve sys ~ws ~opts:opts' ~t_now:0.0 ~reactive ~x0:x_prev ()
        in
        if gmin <= opts.gmin *. 1.001 then x
        else step (Float.max opts.gmin (gmin /. 100.0)) x
      in
      step 1e-3 x0
  in
  Mna.voltages sys ws x

module C = Dramstress_circuit
module W = Dramstress_circuit.Waveform
module D = Dramstress_defect.Defect

type controls = {
  wl : W.t;
  wl_ref : W.t;
  wl_nb : W.t;
  pre : W.t;
  sae : W.t;
  wr_acc_hi : W.t;
  wr_acc_lo : W.t;
  wr_ref_hi : W.t;
  wr_ref_lo : W.t;
  colsel : W.t;
}

(* parasitic bridge in parallel with the inter-cell coupling capacitor
   (the Rcouple_cells element): fixed and weak — the sweepable knob is
   the capacitance, which dominates the disturb *)
let r_couple_ohm = 1e9

type built = {
  compiled : C.Netlist.compiled;
  acc_bl : string;
  ref_bl : string;
  vc_node : string;
  cell_node : string;
  probes : string list;
}

let inject nl (tech : Tech.t) ~acc_bl ~ref_bl (defect : D.t) =
  ignore tech;
  ignore acc_bl;
  match defect.D.kind with
  | D.Open_cell D.At_bitline_contact ->
    C.Netlist.insert_series nl ~name:"r_defect" ~device:"m_acc"
      ~terminal:C.Device.Term_a ~r:defect.D.r
  | D.Open_cell D.At_capacitor_contact ->
    C.Netlist.insert_series nl ~name:"r_defect" ~device:"cs"
      ~terminal:C.Device.Term_a ~r:defect.D.r
  | D.Open_cell D.At_plate_contact ->
    C.Netlist.insert_series nl ~name:"r_defect" ~device:"cs"
      ~terminal:C.Device.Term_b ~r:defect.D.r
  | D.Short_to_gnd -> C.Netlist.resistor nl ~name:"r_defect" "cell" "0" defect.D.r
  | D.Short_to_vdd ->
    C.Netlist.resistor nl ~name:"r_defect" "cell" "vddr" defect.D.r
  | D.Bridge_to_paired_bl ->
    C.Netlist.resistor nl ~name:"r_defect" "cell" ref_bl defect.D.r
  | D.Bridge_to_neighbour ->
    C.Netlist.resistor nl ~name:"r_defect" "cell" "cell_nb" defect.D.r

let build ~(tech : Tech.t) ~vdd ~controls ?(leak_g = 0.0) ?(couple = 0.0)
    ?defect () =
  let nl = C.Netlist.create () in
  let acc_bl, ref_bl =
    match defect with
    | Some { D.placement = D.Comp_bl; _ } -> ("blb", "bl")
    | Some { D.placement = D.True_bl; _ } | None -> ("bl", "blb")
  in
  (* rails and control-voltage nodes *)
  C.Netlist.vsource nl ~name:"v_vdd" "vddr" "0" (W.dc vdd);
  C.Netlist.vsource nl ~name:"v_wl" "wl" "0" controls.wl;
  C.Netlist.vsource nl ~name:"v_wlr" "wlr" "0" controls.wl_ref;
  C.Netlist.vsource nl ~name:"v_wlnb" "wl_nb" "0" controls.wl_nb;
  (* bit lines *)
  C.Netlist.capacitor nl ~name:"c_bl" "bl" "0" tech.Tech.c_bl;
  C.Netlist.capacitor nl ~name:"c_blb" "blb" "0" tech.Tech.c_bl;
  (* accessed storage cell *)
  C.Netlist.mosfet nl ~name:"m_acc" ~d:acc_bl ~g:"wl" ~s:"cell"
    ~model:tech.Tech.access ();
  C.Netlist.capacitor nl ~name:"cs" "cell" "0" tech.Tech.c_cell;
  (* neighbour cell on the same bit line, word line never fired *)
  C.Netlist.mosfet nl ~name:"m_nb" ~d:acc_bl ~g:"wl_nb" ~s:"cell_nb"
    ~model:tech.Tech.access ();
  C.Netlist.capacitor nl ~name:"cs_nb" "cell_nb" "0" tech.Tech.c_cell;
  (* reference (dummy) cell on the paired line; reset during precharge *)
  C.Netlist.mosfet nl ~name:"m_ref" ~d:ref_bl ~g:"wlr" ~s:"dcell"
    ~model:tech.Tech.access ();
  C.Netlist.capacitor nl ~name:"cs_ref" "dcell" "0" tech.Tech.c_ref;
  C.Netlist.switch nl ~name:"sw_refrst" "dcell" "0" ~ctrl:controls.pre
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  (* precharge and equalize *)
  C.Netlist.switch nl ~name:"sw_pre_bl" "bl" "vddr" ~ctrl:controls.pre
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  C.Netlist.switch nl ~name:"sw_pre_blb" "blb" "vddr" ~ctrl:controls.pre
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  C.Netlist.switch nl ~name:"sw_eq" "bl" "blb" ~ctrl:controls.pre
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  (* cross-coupled sense amplifier *)
  C.Netlist.mosfet nl ~name:"m_sap1" ~d:"bl" ~g:"blb" ~s:"sap"
    ~model:tech.Tech.sa_p ();
  C.Netlist.mosfet nl ~name:"m_sap2" ~d:"blb" ~g:"bl" ~s:"sap"
    ~model:tech.Tech.sa_p ();
  C.Netlist.mosfet nl ~name:"m_san1" ~d:"bl" ~g:"blb" ~s:"san"
    ~model:tech.Tech.sa_n ();
  C.Netlist.mosfet nl ~name:"m_san2" ~d:"blb" ~g:"bl" ~s:"san"
    ~model:tech.Tech.sa_n ();
  C.Netlist.capacitor nl ~name:"c_sap" "sap" "0" tech.Tech.c_sa;
  C.Netlist.capacitor nl ~name:"c_san" "san" "0" tech.Tech.c_sa;
  C.Netlist.switch nl ~name:"sw_sap" "sap" "vddr" ~ctrl:controls.sae
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  C.Netlist.switch nl ~name:"sw_san" "san" "0" ~ctrl:controls.sae
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  (* write driver on both lines *)
  C.Netlist.switch nl ~name:"sw_wacc_hi" acc_bl "vddr"
    ~ctrl:controls.wr_acc_hi ~g_on:tech.Tech.g_write ~g_off:tech.Tech.g_off ();
  C.Netlist.switch nl ~name:"sw_wacc_lo" acc_bl "0" ~ctrl:controls.wr_acc_lo
    ~g_on:tech.Tech.g_write ~g_off:tech.Tech.g_off ();
  C.Netlist.switch nl ~name:"sw_wref_hi" ref_bl "vddr"
    ~ctrl:controls.wr_ref_hi ~g_on:tech.Tech.g_write ~g_off:tech.Tech.g_off ();
  C.Netlist.switch nl ~name:"sw_wref_lo" ref_bl "0" ~ctrl:controls.wr_ref_lo
    ~g_on:tech.Tech.g_write ~g_off:tech.Tech.g_off ();
  (* loading compensation: a cell-sized capacitor joins the reference
     line while the latch regenerates, balancing the accessed cell's
     capacitance (the dummy itself is cut off at sense). Reset to the
     precharge level between cycles. *)
  C.Netlist.switch nl ~name:"sw_comp" ref_bl "comp" ~ctrl:controls.sae
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  C.Netlist.capacitor nl ~name:"c_comp" "comp" "0" tech.Tech.c_cell;
  (* the compensation cap parks at the expected post-share reference
     level so that joining the line injects no net charge *)
  let v_refmid =
    vdd *. (1.0 -. (tech.Tech.c_ref /. (tech.Tech.c_ref +. tech.Tech.c_bl)))
  in
  C.Netlist.vsource nl ~name:"v_refmid" "vrefmid" "0" (W.dc v_refmid);
  C.Netlist.switch nl ~name:"sw_comprst" "comp" "vrefmid" ~ctrl:controls.pre
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  (* output buffer; the DQ line is precharged like the bit lines *)
  C.Netlist.switch nl ~name:"sw_col" acc_bl "dq" ~ctrl:controls.colsel
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  C.Netlist.capacitor nl ~name:"c_dq" "dq" "0" tech.Tech.c_out;
  C.Netlist.switch nl ~name:"sw_dqrst" "dq" "vddr" ~ctrl:controls.pre
    ~g_on:tech.Tech.g_switch ~g_off:tech.Tech.g_off ();
  (* retention: junction/gate-induced leakage off both storage nodes.
     Modeled as a conductance to substrate; zero means an ideal cell and
     adds no device, so the untouched netlist stays byte-identical. *)
  if leak_g > 0.0 then begin
    C.Netlist.resistor nl ~name:"r_leak" "cell" "0" (1.0 /. leak_g);
    C.Netlist.resistor nl ~name:"r_leak_nb" "cell_nb" "0" (1.0 /. leak_g)
  end;
  (* coupling disturb: Ccouple/Rcouple between the accessed and the
     neighbour storage node (the Transistor_Pilates
     Ccouple_cells/Rcouple_cells pair) *)
  if couple > 0.0 then begin
    C.Netlist.capacitor nl ~name:"c_couple" "cell" "cell_nb" couple;
    C.Netlist.resistor nl ~name:"r_couple" "cell" "cell_nb" r_couple_ohm
  end;
  (match defect with
  | Some d -> inject nl tech ~acc_bl ~ref_bl d
  | None -> ());
  let compiled = C.Netlist.compile nl in
  (* the storage capacitor's observable terminal may have been rewired by
     an open injection; resolve it from the compiled device list *)
  let vc_node =
    let cs =
      Array.to_list compiled.C.Netlist.devices
      |> List.find (fun d -> C.Device.name d = "cs")
    in
    let node = C.Device.terminal_node cs C.Device.Term_a in
    compiled.C.Netlist.names.(node)
  in
  let probes =
    List.sort_uniq String.compare
      [ "bl"; "blb"; "cell"; vc_node; "dq"; "dcell"; "sap"; "san"; "cell_nb" ]
  in
  { compiled; acc_bl; ref_bl; vc_node; cell_node = "cell"; probes }

let initial_conditions built ~vdd ~vc_init ~v_neighbour =
  let base =
    [
      ("bl", vdd); ("blb", vdd); ("dq", vdd); ("dcell", 0.0);
      ("sap", vdd); ("san", vdd -. 0.5); ("comp", vdd *. 0.9); ("cell_nb", v_neighbour);
      (built.vc_node, vc_init);
    ]
  in
  (* when an open separates "cell" from the capacitor plate, start the
     stranded node at the same potential to avoid an artificial kick *)
  if built.vc_node <> built.cell_node then (built.cell_node, vc_init) :: base
  else base

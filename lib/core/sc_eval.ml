module S = Dramstress_dram.Stress
module D = Dramstress_defect.Defect

type t = {
  kind : D.kind;
  placement : D.placement;
  nominal : S.t;
  nominal_detection : Detection.t;
  nominal_br : Border.result;
  probes : Stressor.probe list;
  stressed : S.t;
  stressed_detection : Detection.t;
  stressed_br : Border.result;
  improvement : float option;
}

(* the retention element's pause, s *)
let pause = 1e-3

let candidate_detections ?(allow_pause = true) ~placement kind =
  let victim = D.logical_victim kind placement in
  let standards =
    List.map (fun primes -> Detection.standard ~victim ~primes) [ 1; 2; 3; 4 ]
  in
  (* shorts leak stored charge; bridges couple cells over time: both are
     attacked by data-retention elements when pauses are allowed *)
  match kind with
  | ( D.Short_to_gnd | D.Short_to_vdd | D.Bridge_to_paired_bl
    | D.Bridge_to_neighbour )
    when allow_pause ->
    standards @ [ Detection.retention ~victim ~pause ]
  | D.Short_to_gnd | D.Short_to_vdd | D.Open_cell _ | D.Bridge_to_paired_bl
  | D.Bridge_to_neighbour ->
    standards

let best_detection ?config ?store ?window ?hint ?allow_pause ~stress ~kind
    ~placement () =
  let polarity = D.polarity kind in
  let scored =
    List.map
      (fun cond ->
        ( cond,
          Border.search ?config ?store ?window ?hint ~stress
            ~kind ~placement cond ))
      (candidate_detections ?allow_pause ~placement kind)
  in
  match scored with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun (best_c, best_b) (c, b) ->
        if Border.better polarity b best_b then (c, b) else (best_c, best_b))
      first rest

let evaluate ?config ?store ?window
    ?(axes = [ S.Cycle_time; S.Temperature; S.Supply_voltage ]) ~nominal
    ~kind ~placement () =
  (* retention pauses are part of the stress repertoire, not the nominal
     test: the nominal detection is pause-free *)
  let nominal_detection, nominal_br =
    best_detection ?config ?store ?window ~allow_pause:false
      ~stress:nominal ~kind ~placement ()
  in
  (* probe each axis at the nominal point, resolving by BR against the
     nominal best detection *)
  let probes =
    List.map
      (fun axis ->
        Stressor.probe_axis ?config ?store ?window ~stress:nominal ~kind
          ~placement ~detection:nominal_detection axis
          (Stressor.default_values axis ~stress:nominal))
      axes
  in
  let stressed =
    List.fold_left
      (fun stress probe -> Stressor.apply_verdict probe ~stress)
      nominal probes
  in
  (* Section 4.4: re-derive the detection condition under the applied SC *)
  let stressed_detection, stressed_br =
    best_detection ?config ?store ?window ~stress:stressed ~kind
      ~placement ()
  in
  let improvement =
    Border.improvement ?window (D.polarity kind) ~nominal:nominal_br
      ~stressed:stressed_br
  in
  {
    kind;
    placement;
    nominal;
    nominal_detection;
    nominal_br;
    probes;
    stressed;
    stressed_detection;
    stressed_br;
    improvement;
  }

let pp ppf e =
  Format.fprintf ppf
    "@[<v2>%a (%a):@ nominal SC: %a@ nominal detection: %a -> %a@ %a@ \
     stressed SC: %a@ stressed detection: %a -> %a@ coverage growth: %s@]"
    D.pp_kind e.kind D.pp_placement e.placement S.pp e.nominal Detection.pp
    e.nominal_detection Border.pp_result e.nominal_br
    (Format.pp_print_list ~pp_sep:Format.pp_print_space Stressor.pp_probe)
    e.probes S.pp e.stressed Detection.pp e.stressed_detection
    Border.pp_result e.stressed_br
    (match e.improvement with
    | Some f -> Printf.sprintf "%.2fx" f
    | None -> "n/a")

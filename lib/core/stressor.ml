module O = Dramstress_dram.Ops
module S = Dramstress_dram.Stress
module D = Dramstress_defect.Defect
module Ax = Dramstress_stressaxis.Stressaxis
module Sc = Dramstress_dram.Sim_config
module St = Dramstress_util.Store

type direction = Increase | Decrease | Neutral

let pp_direction ppf = function
  | Increase -> Format.pp_print_string ppf "increase"
  | Decrease -> Format.pp_print_string ppf "decrease"
  | Neutral -> Format.pp_print_string ppf "neutral"

type sample = { value : float; write_residual : float; vsa_shift : float }

type probe = {
  axis : S.axis;
  samples : sample list;
  write_direction : direction;
  read_direction : direction;
  verdict : direction;
  br_at_extremes : (float * Border.result) list;
  rationale : string;
}

let default_values axis ~stress = (Ax.of_axis axis).Ax.probe_values stress

(* direction of the stress metric: does the metric grow with the axis? *)
let metric_direction ~epsilon samples metric =
  match samples with
  | [] | [ _ ] -> Neutral
  | first :: _ ->
    let last = List.nth samples (List.length samples - 1) in
    let d = metric last -. metric first in
    if Float.abs d <= epsilon then Neutral
    else if d > 0.0 then Increase
    else Decrease

let victim_write kind placement =
  let logical = D.logical_victim kind placement in
  let logical_op = if logical = 0 then O.W0 else O.W1 in
  (* the physical level under attack is placement-independent *)
  (logical_op, D.victim_bit kind)

let probe_axis ?config ?store ?window ?(analysis_r = 200e3)
    ?(epsilon = 0.01)
    ?(force_br = false) ~stress ~kind ~placement ~detection axis values =
  if List.length values < 2 then
    invalid_arg "Stressor.probe_axis: need at least two values";
  let victim_op, physical_target = victim_write kind placement in
  let defect = D.v kind placement analysis_r in
  let key = lazy (Sc.key (Option.value config ~default:Sc.default)) in
  let measure value () =
    let st = S.set stress axis value in
    (* write probe: one victim write from the complementary full level *)
    let vc_init = if physical_target = 0 then st.S.vdd else 0.0 in
    let outcome = O.run ?config ~stress:st ~defect ~vc_init [ victim_op ] in
    let vc_end = (List.hd outcome.O.results).O.vc_end in
    let target_v = if physical_target = 0 then 0.0 else st.S.vdd in
    let write_residual = Float.abs (vc_end -. target_v) in
    (* read probe: V_sa, oriented so that larger = easier detection.
       For a physical-0 victim the failed write leaves a high voltage
       that must read as (physical) 1, which happens above V_sa: lower
       V_sa helps, so orientation flips. *)
    let vsa_raw =
      match Plane.vsa ?config ~stress:st ~defect () with
      | Plane.Vsa v -> v
      | Plane.Reads_all_1 -> 0.0
      | Plane.Reads_all_0 -> st.S.vdd
    in
    let vsa_shift =
      if physical_target = 0 then -.vsa_raw else vsa_raw
    in
    { value; write_residual; vsa_shift }
  in
  let sample value =
    match store with
    | None -> measure value ()
    | Some store ->
      let st = S.set stress axis value in
      St.memo store
        ~key:
          (Lazy.force key "stressor.sample" ~stress:st ~kind ~placement
             [ Printf.sprintf "r=%h" analysis_r ])
        ~descr:
          (Format.asprintf "stress probe %a/%a under %a" D.pp_kind kind
             D.pp_placement placement S.pp st)
        ~encode:(fun s -> Printf.sprintf "%h %h" s.write_residual s.vsa_shift)
        ~decode:(fun s ->
          Scanf.sscanf_opt s "%h %h%!" (fun write_residual vsa_shift ->
              { value; write_residual; vsa_shift }))
        (measure value)
  in
  let samples = List.map sample values in
  let write_direction =
    metric_direction ~epsilon samples (fun s -> s.write_residual)
  in
  let read_direction =
    metric_direction ~epsilon samples (fun s -> s.vsa_shift)
  in
  let lo = List.hd values and hi = List.nth values (List.length values - 1) in
  let polarity = D.polarity kind in
  let br_compare () =
    let br_of v =
      ( v,
        Border.search ?config ?store ?window
          ~stress:(S.set stress axis v) ~kind ~placement detection )
    in
    let b_lo = br_of lo and b_hi = br_of hi in
    let verdict =
      if Border.better polarity (snd b_hi) (snd b_lo) then Increase
      else if Border.better polarity (snd b_lo) (snd b_hi) then Decrease
      else Neutral
    in
    (verdict, [ b_lo; b_hi ])
  in
  let verdict, br_at_extremes, rationale =
    if force_br then begin
      let v, brs = br_compare () in
      (v, brs, "resolved by border-resistance comparison (forced)")
    end
    else
      match (write_direction, read_direction) with
      | Increase, (Increase | Neutral) | Neutral, Increase ->
        (Increase, [], "write and read probes agree: drive the axis up")
      | Decrease, (Decrease | Neutral) | Neutral, Decrease ->
        (Decrease, [], "write and read probes agree: drive the axis down")
      | Neutral, Neutral ->
        (Neutral, [], "no measurable effect on either operation")
      | Increase, Decrease | Decrease, Increase ->
        let v, brs = br_compare () in
        ( v,
          brs,
          "write and read probes conflict: resolved by border-resistance \
           comparison (the paper's V_dd situation)" )
  in
  {
    axis;
    samples;
    write_direction;
    read_direction;
    verdict;
    br_at_extremes;
    rationale;
  }

let apply_verdict probe ~stress =
  let nudge axis sign = (Ax.of_axis axis).Ax.nudge stress sign in
  match probe.verdict with
  | Neutral -> stress
  | Increase -> nudge probe.axis 1.0
  | Decrease -> nudge probe.axis (-1.0)

let trace_vc ?config ~stress ~defect ~vc_init op =
  let outcome = O.run ?config ~stress ~defect ~vc_init [ op ] in
  Dramstress_util.Interp.points (O.vc_curve outcome)

let pp_probe ppf p =
  Format.fprintf ppf "@[<v2>%a:@ write: %a, read: %a -> verdict: %a@ %s@]"
    S.pp_axis p.axis pp_direction p.write_direction pp_direction
    p.read_direction pp_direction p.verdict p.rationale

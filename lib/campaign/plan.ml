module D = Dramstress_defect.Defect
module S = Dramstress_dram.Stress
module Sc = Dramstress_dram.Sim_config
module Det = Dramstress_core.Detection
module Border = Dramstress_core.Border
module M = Dramstress_march.March

type point = {
  defect : D.entry;
  placement : D.placement;
  stress_label : string;
  stress : S.t;
  detection : Manifest.detection_spec;
  key : string;
}

type result = { detection : Det.t; br : Border.result }

(* ------------------------------------------------------------------ *)
(* codecs                                                              *)
(* ------------------------------------------------------------------ *)

let encode_result { detection; br } =
  Det.encode detection ^ "|" ^ Border.encode_result br

let decode_result s =
  match String.index_opt s '|' with
  | None -> None
  | Some i ->
    let det = String.sub s 0 i in
    let br = String.sub s (i + 1) (String.length s - i - 1) in
    (match (Det.of_string det, Border.decode_result br) with
    | Ok detection, Some br -> Some { detection; br }
    | _, _ -> None)

(* ------------------------------------------------------------------ *)
(* content addresses                                                   *)
(* ------------------------------------------------------------------ *)

(* the detection part of the address: explicit sequences (and marches,
   via their per-cell lowering) address by their canonical op text, so
   equivalent specs share records; synthesized specs address by the
   request, since the winning sequence is an OUTPUT of the point *)
let detection_canon = function
  | Manifest.Best -> "best"
  | Manifest.Best_no_pause -> "best-nopause"
  | Manifest.Seq d -> "seq:" ^ Det.encode d
  | Manifest.March t -> "seq:" ^ Det.encode (M.to_detection t)

(* the physics and the window print once per application to [m]; the
   stress label and the campaign name stay out of the key *)
let make (m : Manifest.t) =
  let key = Sc.key m.Manifest.config "campaign.point" in
  let window = Border.Window.key m.Manifest.window in
  fun ~(defect : D.entry) ~placement ~stress_label ~stress detection ->
    let key =
      key ~stress ~kind:defect.D.kind ~placement
        [ "detect=" ^ detection_canon detection; window ]
    in
    { defect; placement; stress_label; stress; detection; key }

let points (m : Manifest.t) =
  let make = make m in
  List.concat_map
    (fun (defect, placement) ->
      List.concat_map
        (fun (stress_label, stress) ->
          List.map
            (make ~defect ~placement ~stress_label ~stress)
            m.Manifest.detections)
        m.Manifest.stresses)
    m.Manifest.defects

let fail_key p = "campaign.fail|" ^ p.key

let pp_point ppf p =
  Format.fprintf ppf "%s/%a @@ %s [%s]" p.defect.D.id D.pp_placement
    p.placement p.stress_label
    (Manifest.detection_label p.detection)

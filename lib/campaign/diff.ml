module D = Dramstress_defect.Defect
module Border = Dramstress_core.Border
module Table1 = Dramstress_core.Table1
module Store = Dramstress_util.Store

type side = { store : Store.t; manifest : Manifest.t; label : string }

type pairing =
  | Matched_stresses
  | Stress_pair of { a : string; b : string }

type row = {
  defect : D.entry;
  placement : D.placement;
  detection : Manifest.detection_spec;
  stress_a : string;
  stress_b : string;
  a : Plan.result option;
  b : Plan.result option;
  improvement : float option;
  shifted : bool;
}

type t = {
  a_label : string;
  b_label : string;
  rows : row list;
  shifted : int;
  missing : int;
  unpaired : string list;
}

let lookup side make ~stress_label ~defect ~placement ~detection =
  match List.assoc_opt stress_label side.manifest.Manifest.stresses with
  | None -> None
  | Some stress ->
    (match Runner.state ~store:side.store (make ~defect ~placement ~stress_label ~stress detection) with
    | `Done r -> Some r
    | `Failed _ | `Missing -> None)

let v ?(pairing = Matched_stresses) ~a ~b () =
  let a_labels = List.map fst a.manifest.Manifest.stresses in
  let b_labels = List.map fst b.manifest.Manifest.stresses in
  let pairs, unpaired =
    match pairing with
    | Matched_stresses ->
      ( List.filter_map
          (fun l -> if List.mem l b_labels then Some (l, l) else None)
          a_labels,
        List.filter (fun l -> not (List.mem l b_labels)) a_labels
        @ List.filter (fun l -> not (List.mem l a_labels)) b_labels )
    | Stress_pair { a = la; b = lb } ->
      if not (List.mem la a_labels) then
        invalid_arg
          (Printf.sprintf "Diff.v: stress %S not declared in %s" la a.label);
      if not (List.mem lb b_labels) then
        invalid_arg
          (Printf.sprintf "Diff.v: stress %S not declared in %s" lb b.label);
      ([ (la, lb) ], [])
  in
  let make_a = Plan.make a.manifest and make_b = Plan.make b.manifest in
  let rows =
    List.concat_map
      (fun (defect, placement) ->
        List.concat_map
          (fun (stress_a, stress_b) ->
            List.map
              (fun detection ->
                let ra = lookup a make_a ~stress_label:stress_a ~defect ~placement ~detection in
                let rb = lookup b make_b ~stress_label:stress_b ~defect ~placement ~detection in
                let improvement =
                  match (ra, rb) with
                  | Some ra, Some rb ->
                    Border.improvement (D.polarity defect.D.kind)
                      ~nominal:ra.Plan.br ~stressed:rb.Plan.br
                  | _, _ -> None
                in
                let shifted =
                  match (ra, rb) with
                  | Some ra, Some rb ->
                    not (Border.equal_result ra.Plan.br rb.Plan.br)
                  | _, _ -> false
                in
                {
                  defect;
                  placement;
                  detection;
                  stress_a;
                  stress_b;
                  a = ra;
                  b = rb;
                  improvement;
                  shifted;
                })
              a.manifest.Manifest.detections)
          pairs)
      a.manifest.Manifest.defects
  in
  {
    a_label = a.label;
    b_label = b.label;
    rows;
    shifted = List.length (List.filter (fun (r : row) -> r.shifted) rows);
    missing =
      List.length
        (List.filter (fun (r : row) -> r.a = None || r.b = None) rows);
    unpaired;
  }

let br_cell = function
  | None -> "--"
  | Some r -> Table1.br_string r.Plan.br

let stress_cell ra rb =
  if ra = rb then ra else Printf.sprintf "%s->%s" ra rb

let render d =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Campaign diff: A = %s, B = %s\n" d.a_label d.b_label);
  Buffer.add_string buf
    (Printf.sprintf "%-6s %-6s %-14s %-18s %-12s %-12s %-8s %s\n" "Defect"
       "Place" "Detection" "Stress" "Border A" "Border B" "Shift" "Same");
  Buffer.add_string buf (String.make 92 '-' ^ "\n");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-6s %-14s %-18s %-12s %-12s %-8s %s\n"
           r.defect.D.id
           (Format.asprintf "%a" D.pp_placement r.placement)
           (Manifest.detection_label r.detection)
           (stress_cell r.stress_a r.stress_b)
           (br_cell r.a) (br_cell r.b)
           (match r.improvement with
           | Some f -> Printf.sprintf "%.2fx" f
           | None -> "n/a")
           (if r.a = None || r.b = None then "missing"
            else if r.shifted then "SHIFTED"
            else "=")))
    d.rows;
  Buffer.add_string buf
    (Printf.sprintf "\n%d row(s), %d shifted, %d with a missing side.\n"
       (List.length d.rows) d.shifted d.missing);
  if d.unpaired <> [] then
    Buffer.add_string buf
      (Printf.sprintf "Unpaired stress label(s) skipped: %s\n"
         (String.concat ", " d.unpaired));
  Buffer.contents buf

let to_csv d =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "defect,placement,detection,stress_a,stress_b,border_a,border_b,shift,\
     shifted\n";
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%s,%s,%s,%s,%s,%s,%b\n" r.defect.D.id
           (Format.asprintf "%a" D.pp_placement r.placement)
           (Manifest.detection_label r.detection)
           r.stress_a r.stress_b (br_cell r.a) (br_cell r.b)
           (match r.improvement with
           | Some f -> Printf.sprintf "%.6g" f
           | None -> "")
           r.shifted))
    d.rows;
  Buffer.contents buf

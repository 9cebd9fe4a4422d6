module D = Dramstress_defect.Defect
module Border = Dramstress_core.Border
module Table1 = Dramstress_core.Table1
module Sc_eval = Dramstress_core.Sc_eval
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

(* two results agree when their detections are equal, their shapes
   match and every edge lies within [rel_tol] in log-resistance; at 0
   only equal borders agree *)
let agree ~rel_tol (ra : Plan.result) (rb : Plan.result) =
  ra.Plan.detection = rb.Plan.detection
  &&
  if rel_tol = 0.0 then Border.equal_result ra.Plan.br rb.Plan.br
  else
    match Border.edge_distances ra.Plan.br rb.Plan.br with
    | Some ds -> List.for_all (fun d -> Float.abs d <= rel_tol) ds
    | None -> false

let v ?(pairing = Matched_stresses) ?(rel_tol = 0.0) ~a ~b () =
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
                  | Some ra, Some rb -> not (agree ~rel_tol ra rb)
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

(* ------------------------------------------------------------------ *)
(* Table-1 stores                                                      *)
(* ------------------------------------------------------------------ *)

let table1 ~rel_tol ~a_label ~b_label (a : Table1.t) (b : Table1.t) =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "Table-1 diff: A = %s, B = %s, rel_tol %g\n" a_label
       b_label rel_tol);
  Buffer.add_string buf
    (Printf.sprintf "%-6s %-6s %-12s %-12s %-18s %-18s %-9s %s\n" "Defect"
       "Place" "Nom. A" "Nom. B" "Str. A" "Str. B" "ln dist" "Verdict");
  Buffer.add_string buf (String.make 100 '-' ^ "\n");
  let diffs = Table1.compare a b in
  let off = ref 0 in
  List.iter
    (fun (d : Table1.row_diff) ->
      let ea = d.Table1.a_row.Table1.evaluation
      and eb = d.Table1.b_row.Table1.evaluation in
      let worst =
        match
          (Table1.worst d.Table1.nominal_d, Table1.worst d.Table1.stressed_d)
        with
        | Some x, Some y -> Some (Float.max x y)
        | _, _ -> None
      in
      let verdict =
        if not d.Table1.same_sc then "SC/DIRECTIONS DIFFER"
        else if not d.Table1.same_detection then "DETECTION DIFFERS"
        else
          match worst with
          | None -> "SHAPE DIFFERS"
          | Some 0.0 -> "="
          | Some w when w <= rel_tol -> "within"
          | Some _ -> "MOVED"
      in
      if verdict <> "=" && verdict <> "within" then incr off;
      Buffer.add_string buf
        (Printf.sprintf "%-6s %-6s %-12s %-12s %-18s %-18s %-9s %s\n"
           d.Table1.a_row.Table1.defect_id
           (D.placement_name d.Table1.a_row.Table1.placement)
           (Table1.br_string ea.Sc_eval.nominal_br)
           (Table1.br_string eb.Sc_eval.nominal_br)
           (Table1.br_string ea.Sc_eval.stressed_br)
           (Table1.br_string eb.Sc_eval.stressed_br)
           (match worst with Some w -> Printf.sprintf "%.4f" w | None -> "--")
           verdict))
    diffs;
  (* a replayed row whose records a store lacks fails, and its partner
     is then on one side only *)
  let one_side =
    List.length a.Table1.rows + List.length b.Table1.rows
    - (2 * List.length diffs)
  and failed = List.length a.Table1.failures + List.length b.Table1.failures in
  Buffer.add_string buf
    (Printf.sprintf
       "\n%d row(s) compared, %d out of tolerance; %d on one side only, %d \
        failed to replay.\n"
       (List.length diffs) !off one_side failed);
  List.iter
    (fun (label, (t : Table1.t)) ->
      List.iter
        (fun f ->
          let id, placement = f.Dramstress_util.Outcome.point in
          Buffer.add_string buf
            (Printf.sprintf "  %s: %s %s failed: %s\n" label id
               (D.placement_name placement)
               (Dramstress_util.Outcome.error_message f)))
        t.Table1.failures)
    [ (a_label, a); (b_label, b) ];
  (Buffer.contents buf, !off + one_side + failed)

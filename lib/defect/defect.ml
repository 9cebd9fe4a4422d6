type open_site = At_bitline_contact | At_capacitor_contact | At_plate_contact

type kind =
  | Open_cell of open_site
  | Short_to_gnd
  | Short_to_vdd
  | Bridge_to_paired_bl
  | Bridge_to_neighbour

type placement = True_bl | Comp_bl

type t = { kind : kind; placement : placement; r : float }

let v kind placement r =
  if r <= 0.0 then invalid_arg "Defect.v: non-positive resistance";
  { kind; placement; r }

let with_r d r =
  if r <= 0.0 then invalid_arg "Defect.with_r: non-positive resistance";
  { d with r }

type polarity = High_r_fails | Low_r_fails

let polarity = function
  | Open_cell _ -> High_r_fails
  | Short_to_gnd | Short_to_vdd | Bridge_to_paired_bl | Bridge_to_neighbour ->
    Low_r_fails

let victim_bit = function
  | Open_cell _ -> 0  (* the hard-to-write value behind a big open is 0 *)
  | Short_to_gnd -> 1 (* a stored 1 leaks to ground *)
  | Short_to_vdd -> 0 (* a stored 0 is pulled up *)
  | Bridge_to_paired_bl -> 0 (* paired line precharges high, lifts a 0 *)
  | Bridge_to_neighbour -> 0 (* neighbour commonly holds the opposite value *)

let logical_victim kind placement =
  match placement with
  | True_bl -> victim_bit kind
  | Comp_bl -> 1 - victim_bit kind

type entry = { id : string; label : string; kind : kind }

let catalog =
  [
    { id = "O1"; label = "open at bit-line contact";
      kind = Open_cell At_bitline_contact };
    { id = "O2"; label = "open at storage-capacitor contact";
      kind = Open_cell At_capacitor_contact };
    { id = "O3"; label = "open at capacitor plate";
      kind = Open_cell At_plate_contact };
    { id = "Sg"; label = "short, storage node to GND"; kind = Short_to_gnd };
    { id = "Sv"; label = "short, storage node to Vdd"; kind = Short_to_vdd };
    { id = "B1"; label = "bridge, storage node to paired bit line";
      kind = Bridge_to_paired_bl };
    { id = "B2"; label = "bridge, storage node to neighbour cell";
      kind = Bridge_to_neighbour };
  ]

let find_entry id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> String.lowercase_ascii e.id = id) catalog

let kind_name = function
  | Open_cell At_bitline_contact -> "O1"
  | Open_cell At_capacitor_contact -> "O2"
  | Open_cell At_plate_contact -> "O3"
  | Short_to_gnd -> "Sg"
  | Short_to_vdd -> "Sv"
  | Bridge_to_paired_bl -> "B1"
  | Bridge_to_neighbour -> "B2"

let placement_name = function True_bl -> "true" | Comp_bl -> "comp."
let pp_kind ppf k = Format.pp_print_string ppf (kind_name k)
let pp_placement ppf p = Format.pp_print_string ppf (placement_name p)

let pp ppf (d : t) =
  Format.fprintf ppf "%a (%a) R=%a" pp_kind d.kind pp_placement d.placement
    Dramstress_util.Units.pp_si d.r

let describe_figure7 () =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Figure 7 -- simulated cell defects (opens, shorts, bridges)\n\n";
  Buffer.add_string buf
    "    BL ---o--[O1]--| access |--[O2]--o--[O3]--||--- plate\n";
  Buffer.add_string buf
    "          |          (WL gate)       |storage cap Cs\n";
  Buffer.add_string buf
    "          |                          +--[Sg]--- GND\n";
  Buffer.add_string buf
    "          |                          +--[Sv]--- Vdd\n";
  Buffer.add_string buf
    "          |                          +--[B1]--- BLB (paired line)\n";
  Buffer.add_string buf
    "          |                          +--[B2]--- neighbour cell node\n\n";
  List.iter
    (fun e ->
      Buffer.add_string buf (Printf.sprintf "  %-3s %s\n" e.id e.label))
    catalog;
  Buffer.contents buf

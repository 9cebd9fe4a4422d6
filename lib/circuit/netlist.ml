type t = {
  mutable next_node : int;
  node_ids : (string, int) Hashtbl.t;
  mutable node_names : (int * string) list;  (* reverse mapping *)
  device_tbl : (string, unit) Hashtbl.t;
  mutable devs : Device.t list;  (* reverse insertion order *)
  mutable fresh : int;
}

let ground = 0

let create () =
  let node_ids = Hashtbl.create 64 in
  Hashtbl.add node_ids "0" 0;
  {
    next_node = 1;
    node_ids;
    node_names = [ (0, "0") ];
    device_tbl = Hashtbl.create 64;
    devs = [];
    fresh = 0;
  }

let node nl name =
  match Hashtbl.find_opt nl.node_ids name with
  | Some id -> id
  | None ->
    let id = nl.next_node in
    nl.next_node <- id + 1;
    Hashtbl.add nl.node_ids name id;
    nl.node_names <- (id, name) :: nl.node_names;
    id

let find_node nl name = Hashtbl.find_opt nl.node_ids name

let node_name nl n =
  match List.assoc_opt n nl.node_names with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Netlist.node_name: unknown node %d" n)

let fresh_node nl prefix =
  nl.fresh <- nl.fresh + 1;
  node nl (Printf.sprintf "%s#%d" prefix nl.fresh)

(* ------------------------------------------------------------------ *)
(* Pre-flight diagnostics                                              *)
(* ------------------------------------------------------------------ *)

type diagnostic =
  | Floating_node of { node : string }
  | Non_finite_param of { device : string; param : string; value : float }
  | Zero_capacitance of { device : string }
  | Unknown_device of { context : string; device : string }

let pp_diagnostic ppf = function
  | Floating_node { node } ->
    Format.fprintf ppf "floating node %S (no device touches it)" node
  | Non_finite_param { device; param; value } ->
    Format.fprintf ppf "device %S: parameter %s is not finite (%h)" device
      param value
  | Zero_capacitance { device } ->
    Format.fprintf ppf
      "capacitor %S: non-positive capacitance (dynamic node has no state)"
      device
  | Unknown_device { context; device } ->
    Format.fprintf ppf "%s: no device named %S" context device

exception Invalid of diagnostic list

let () =
  Printexc.register_printer (function
    | Invalid diags ->
      Some
        (Format.asprintf "Netlist.Invalid [@[<hov>%a@]]"
           (Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
              pp_diagnostic)
           diags)
    | _ -> None)

let add nl d =
  let n = Device.name d in
  if Hashtbl.mem nl.device_tbl n then
    invalid_arg (Printf.sprintf "Netlist.add: duplicate device %S" n);
  Hashtbl.add nl.device_tbl n ();
  nl.devs <- d :: nl.devs

let resistor nl ~name a b r =
  if r <= 0.0 then invalid_arg "Netlist.resistor: r <= 0";
  add nl (Device.Resistor { name; a = node nl a; b = node nl b; r })

let capacitor nl ~name a b c =
  if c <= 0.0 then invalid_arg "Netlist.capacitor: c <= 0";
  add nl (Device.Capacitor { name; a = node nl a; b = node nl b; c })

let vsource nl ~name pos neg wave =
  add nl (Device.Vsource { name; pos = node nl pos; neg = node nl neg; wave })

let isource nl ~name pos neg wave =
  add nl (Device.Isource { name; pos = node nl pos; neg = node nl neg; wave })

let switch nl ~name a b ~ctrl ?(g_on = 1e-2) ?(g_off = 1e-12)
    ?(threshold = 0.5) () =
  add nl
    (Device.Switch
       { name; a = node nl a; b = node nl b; ctrl; g_on; g_off; threshold })

let mosfet nl ~name ~d ~g ~s ~model ?(m = 1.0) () =
  add nl
    (Device.Mosfet
       { name; d = node nl d; g = node nl g; s = node nl s; model; m })

let find_device nl name =
  List.find_opt (fun d -> Device.name d = name) nl.devs

let replace_device nl name d' =
  let found = ref false in
  nl.devs <-
    List.map
      (fun d ->
        if Device.name d = name then begin
          found := true;
          d'
        end
        else d)
      nl.devs;
  if not !found then raise Not_found;
  if Device.name d' <> name then begin
    Hashtbl.remove nl.device_tbl name;
    Hashtbl.replace nl.device_tbl (Device.name d') ()
  end

let remove_device nl name =
  if not (Hashtbl.mem nl.device_tbl name) then raise Not_found;
  Hashtbl.remove nl.device_tbl name;
  nl.devs <- List.filter (fun d -> Device.name d <> name) nl.devs

let insert_series nl ~name ~device ~terminal ~r =
  match find_device nl device with
  | None ->
    raise
      (Invalid [ Unknown_device { context = "Netlist.insert_series"; device } ])
  | Some d ->
    let old_node = Device.terminal_node d terminal in
    let mid = fresh_node nl (device ^ ".open") in
    replace_device nl device (Device.with_terminal d terminal mid);
    add nl (Device.Resistor { name; a = old_node; b = mid; r })

let devices nl = List.rev nl.devs

type compiled = {
  devices : Device.t array;
  n_nodes : int;
  names : string array;
  n_vsources : int;
}

(* numeric device parameters that must be finite for any stamp built
   from them to be finite. Waveform shapes are validated at their own
   construction sites; DC levels are covered here. *)
let param_diagnostics d =
  let name = Device.name d in
  let finite param value acc =
    if Float.is_finite value then acc
    else Non_finite_param { device = name; param; value } :: acc
  in
  let wave_levels param w acc =
    match w with
    | Waveform.Dc v -> finite (param ^ ".dc") v acc
    | Waveform.Pulse _ | Waveform.Pwl _ -> acc
  in
  match d with
  | Device.Resistor { r; _ } -> finite "r" r []
  | Device.Capacitor { c; _ } ->
    let acc = finite "c" c [] in
    if Float.is_finite c && c <= 0.0 then Zero_capacitance { device = name } :: acc
    else acc
  | Device.Vsource { wave; _ } -> wave_levels "v" wave []
  | Device.Isource { wave; _ } -> wave_levels "i" wave []
  | Device.Switch { g_on; g_off; threshold; _ } ->
    finite "g_on" g_on [] |> finite "g_off" g_off |> finite "threshold" threshold
  | Device.Mosfet { m; _ } -> finite "m" m []

let compile nl =
  let devs = Array.of_list (devices nl) in
  let n_nodes = nl.next_node in
  let names = Array.make n_nodes "?" in
  List.iter (fun (id, name) -> names.(id) <- name) nl.node_names;
  (* collect every structural problem before raising, so one compile
     reports the whole sick set instead of the first symptom *)
  let diags = ref [] in
  (* every non-ground node must be touched by at least one device *)
  let touched = Array.make n_nodes false in
  touched.(0) <- true;
  Array.iter
    (fun d -> List.iter (fun n -> touched.(n) <- true) (Device.nodes d))
    devs;
  Array.iteri
    (fun i t ->
      if not t then
        diags := Floating_node { node = names.(i) } :: !diags)
    touched;
  Array.iter (fun d -> diags := param_diagnostics d @ !diags) devs;
  if !diags <> [] then raise (Invalid (List.rev !diags));
  let n_vsources =
    Array.fold_left
      (fun acc d -> match d with Device.Vsource _ -> acc + 1 | _ -> acc)
      0 devs
  in
  { devices = devs; n_nodes; names; n_vsources }

let compiled_node c name =
  let rec find i =
    if i >= Array.length c.names then raise Not_found
    else if c.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let pp ppf nl =
  List.iter (fun d -> Format.fprintf ppf "%a@." Device.pp d) (devices nl)

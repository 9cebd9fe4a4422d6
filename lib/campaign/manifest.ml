module D = Dramstress_defect.Defect
module S = Dramstress_dram.Stress
module Ax = Dramstress_stressaxis.Stressaxis
module Sc = Dramstress_dram.Sim_config
module Det = Dramstress_core.Detection
module W = Dramstress_core.Border.Window
module M = Dramstress_march.March

type detection_spec =
  | Best
  | Best_no_pause
  | Seq of Det.t
  | March of M.t

type t = {
  name : string;
  defects : (D.entry * D.placement) list;
  stresses : (string * S.t) list;
  detections : detection_spec list;
  config : Sc.t;
  window : W.t;
}

type diagnostic =
  | Parse_error of { line : int; msg : string }
  | Unknown_section of { section : string }
  | Missing_field of { section : string; field : string }
  | Empty_section of { section : string }
  | Unknown_defect of { id : string }
  | Duplicate_label of { label : string }
  | Bad_value of {
      section : string;
      field : string;
      value : string;
      msg : string;
    }
  | Bad_range of {
      axis : string;
      lo : float;
      hi : float;
      reason : string;
    }

let pp_diagnostic ppf = function
  | Parse_error { line; msg } ->
    Format.fprintf ppf "parse error at line %d: %s" line msg
  | Unknown_section { section } ->
    Format.fprintf ppf "unknown section (%s ...)" section
  | Missing_field { section; field } ->
    Format.fprintf ppf "section (%s): missing %s" section field
  | Empty_section { section } ->
    Format.fprintf ppf "section (%s) declares nothing" section
  | Unknown_defect { id } ->
    Format.fprintf ppf
      "unknown defect id %s (the catalog has O1..O3, Sg, Sv, B1, B2)" id
  | Duplicate_label { label } ->
    Format.fprintf ppf "stress label %S declared twice" label
  | Bad_value { section; field; value; msg } ->
    Format.fprintf ppf "section (%s), field %s: bad value %S (%s)" section
      field value msg
  | Bad_range { axis; lo; hi; reason } ->
    Format.fprintf ppf "sweep axis %s: bad range %g..%g (%s)" axis lo hi
      reason

exception Invalid of diagnostic list

let () =
  Printexc.register_printer (function
    | Invalid ds ->
      Some
        (Format.asprintf "@[<v2>invalid campaign manifest:@ %a@]"
           (Format.pp_print_list pp_diagnostic)
           ds)
    | _ -> None)

type sexp = Sexp.t = Atom of string | List of sexp list

(* ------------------------------------------------------------------ *)
(* validation                                                          *)
(* ------------------------------------------------------------------ *)

let detection_label = function
  | Best -> "best"
  | Best_no_pause -> "best-nopause"
  | Seq d ->
    "seq:"
    ^ String.concat ","
        (List.map
           (function
             | Det.Write b -> Printf.sprintf "w%d" b
             | Det.Read b -> Printf.sprintf "r%d" b
             | Det.Wait t -> Printf.sprintf "p%g" t
             | Det.Hammer n -> Printf.sprintf "h%d" n)
           d.Det.steps)
  | March m -> "march:" ^ m.M.name

(* a section body is a list of (field value...) sub-lists; anything else
   in it is reported against the section *)
let of_string ?(source = "<string>") src =
  ignore source;
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  let sexps =
    match Sexp.parse_all src with
    | Ok xs -> xs
    | Error (line, msg) -> raise (Invalid [ Parse_error { line; msg } ])
  in
  let body =
    match sexps with
    | [ List (Atom "campaign" :: body) ] -> body
    | [ List (Atom other :: _) ] ->
      raise
        (Invalid
           [ Parse_error
               { line = 1; msg = "expected (campaign ...), got (" ^ other ^ " ...)" } ])
    | _ ->
      raise
        (Invalid
           [ Parse_error
               { line = 1; msg = "expected exactly one (campaign ...) form" } ])
  in
  let name = ref None in
  let defects = ref [] in
  let stresses = ref [] in
  let sweeps = ref [] in
  let detections = ref [] in
  let sim_fields = ref [] in
  let border_fields = ref [] in
  let float_of section field v =
    match float_of_string_opt v with
    | Some f -> Some f
    | None ->
      diag (Bad_value { section; field; value = v; msg = "not a number" });
      None
  in
  let int_of section field v =
    match int_of_string_opt v with
    | Some i -> Some i
    | None ->
      diag (Bad_value { section; field; value = v; msg = "not an integer" });
      None
  in
  (* all axes come from the stress-axis registry: the manifest learns
     about new axes (wait, hammer, leak, ...) without edits here *)
  let axis_of_name name = Option.map (fun e -> e.Ax.axis) (Ax.find name) in
  let unknown_axis_msg =
    "unknown stress axis (" ^ String.concat "|" (Ax.names ()) ^ ")"
  in
  (* axis values are numeric, except the pattern axis also accepts its
     symbolic names (all0 | all1 | checkerboard) *)
  let axis_value_of section axis_name ax v =
    match float_of_string_opt v with
    | Some f -> Some f
    | None -> begin
      match (ax, S.pattern_of_name v) with
      | S.Pattern, Some p -> Some (S.float_of_pattern p)
      | _, _ ->
        diag
          (Bad_value
             { section; field = axis_name; value = v; msg = "not a number" });
        None
    end
  in
  let parse_stress_fields ~section base fields =
    List.fold_left
      (fun stress field ->
        match field with
        | List [ Atom axis; Atom v ] -> begin
          match axis_of_name axis with
          | None ->
            diag
              (Bad_value
                 { section; field = axis; value = v; msg = unknown_axis_msg });
            stress
          | Some ax -> begin
            match axis_value_of section axis ax v with
            | Some f -> S.set stress ax f
            | None -> stress
          end
        end
        | _ ->
          diag
            (Bad_value
               {
                 section;
                 field = "-";
                 value = "";
                 msg = "expected (axis value) pairs";
               });
          stress)
      base fields
  in
  let parse_defect_item item =
    let placement_of = function
      | "true" | "t" -> Some D.True_bl
      | "comp" | "c" -> Some D.Comp_bl
      | _ -> None
    in
    let entry id =
      match D.find_entry id with
      | Some e -> Some e
      | None ->
        diag (Unknown_defect { id });
        None
    in
    match item with
    | Atom id ->
      (* bare id: both placements, the Table-1 convention *)
      Option.iter
        (fun e ->
          defects := (e, D.Comp_bl) :: (e, D.True_bl) :: !defects)
        (entry id)
    | List [ Atom id; Atom pl ] -> begin
      match placement_of pl with
      | None ->
        diag
          (Bad_value
             {
               section = "defects";
               field = id;
               value = pl;
               msg = "placement must be true|comp";
             })
      | Some placement ->
        Option.iter (fun e -> defects := (e, placement) :: !defects) (entry id)
    end
    | _ ->
      diag
        (Bad_value
           {
             section = "defects";
             field = "-";
             value = "";
             msg = "expected a defect id or (id true|comp)";
           })
  in
  let parse_detection_item item =
    match item with
    | Atom "best" -> detections := Best :: !detections
    | Atom ("best-no-pause" | "best-nopause") ->
      detections := Best_no_pause :: !detections
    | List [ Atom "seq"; Atom s ] -> begin
      match Det.of_string s with
      | Ok d -> detections := Seq d :: !detections
      | Error msg ->
        diag (Bad_value { section = "detections"; field = "seq"; value = s; msg })
    end
    | List [ Atom "march"; Atom s ] -> begin
      match M.parse ~name:s s with
      | m -> detections := March m :: !detections
      | exception Invalid_argument msg ->
        diag
          (Bad_value { section = "detections"; field = "march"; value = s; msg })
    end
    | _ ->
      diag
        (Bad_value
           {
             section = "detections";
             field = "-";
             value = "";
             msg = "expected best | best-no-pause | (seq \"...\") | (march \"...\")";
           })
  in
  List.iter
    (fun section ->
      match section with
      | List [ Atom "name"; Atom n ] -> name := Some n
      | List (Atom "name" :: _) ->
        diag
          (Bad_value
             {
               section = "name";
               field = "name";
               value = "";
               msg = "expected (name <atom>)";
             })
      | List (Atom "defects" :: items) -> List.iter parse_defect_item items
      | List (Atom "stress" :: Atom label :: fields) ->
        stresses :=
          (label, parse_stress_fields ~section:"stress" S.nominal fields)
          :: !stresses
      | List (Atom "stress" :: _) ->
        diag (Missing_field { section = "stress"; field = "label" })
      | List (Atom "sweep" :: axes) -> sweeps := axes :: !sweeps
      | List (Atom "detections" :: items) ->
        List.iter parse_detection_item items
      | List (Atom "sim" :: fields) -> sim_fields := fields :: !sim_fields
      | List (Atom "border" :: fields) ->
        border_fields := fields :: !border_fields
      | List (Atom s :: _) -> diag (Unknown_section { section = s })
      | List [] | List (List _ :: _) | Atom _ ->
        diag (Unknown_section { section = "<non-list>" }))
    body;
  (* sweeps expand to a cross product over the listed axes, labeled by
     their values, based on the nominal SC *)
  let expand_sweep axes =
    let parsed =
      List.filter_map
        (fun axis_form ->
          match axis_form with
          | List (Atom axis :: (_ :: _ as values)) -> begin
            match axis_of_name axis with
            | None ->
              diag
                (Bad_value
                   {
                     section = "sweep";
                     field = axis;
                     value = "";
                     msg = unknown_axis_msg;
                   });
              None
            | Some ax ->
              let entry = Ax.of_axis ax in
              let expand_range args =
                let scale_of = function
                  | "log" -> Some Ax.Log
                  | "lin" | "linear" -> Some Ax.Linear
                  | _ -> None
                in
                let parsed =
                  match args with
                  | [ Atom lo; Atom hi; Atom n ] ->
                    Some (lo, hi, n, entry.Ax.scale)
                  | [ Atom lo; Atom hi; Atom n; Atom sc ] -> begin
                    match scale_of sc with
                    | Some scale -> Some (lo, hi, n, scale)
                    | None ->
                      diag
                        (Bad_value
                           {
                             section = "sweep";
                             field = axis;
                             value = sc;
                             msg = "range scale must be log|lin";
                           });
                      None
                  end
                  | _ ->
                    diag
                      (Bad_value
                         {
                           section = "sweep";
                           field = axis;
                           value = "";
                           msg = "expected (range lo hi n [log|lin])";
                         });
                    None
                in
                match parsed with
                | None -> []
                | Some (lo_s, hi_s, n_s, scale) -> begin
                  match
                    ( float_of "sweep" axis lo_s,
                      float_of "sweep" axis hi_s,
                      int_of "sweep" axis n_s )
                  with
                  | Some lo, Some hi, Some n -> begin
                    match Ax.range ~scale ~lo ~hi n with
                    | Ok vs -> vs
                    | Error e ->
                      diag
                        (Bad_range
                           {
                             axis;
                             lo;
                             hi;
                             reason =
                               Format.asprintf "%a" Ax.pp_range_error e;
                           });
                      []
                  end
                  | _, _, _ -> []
                end
              in
              let expand_value = function
                | Atom v -> begin
                  match axis_value_of "sweep" axis ax v with
                  | Some f -> [ f ]
                  | None -> []
                end
                | List (Atom "range" :: args) -> expand_range args
                | List _ ->
                  diag
                    (Bad_value
                       {
                         section = "sweep";
                         field = axis;
                         value = "";
                         msg =
                           "expected numeric values or (range lo hi n \
                            [log|lin])";
                       });
                  []
              in
              let vs = List.concat_map expand_value values in
              if vs = [] then None else Some (axis, entry, ax, vs)
          end
          | _ ->
            diag
              (Bad_value
                 {
                   section = "sweep";
                   field = "-";
                   value = "";
                   msg = "expected (axis v1 v2 ...)";
                 });
            None)
        axes
    in
    List.fold_left
      (fun combos (axis_name, entry, ax, vs) ->
        List.concat_map
          (fun (label, stress) ->
            List.map
              (fun v ->
                let part =
                  Printf.sprintf "%s=%s" axis_name (Ax.value_string entry v)
                in
                let label = if label = "" then part else label ^ "," ^ part in
                (label, S.set stress ax v))
              vs)
          combos)
      [ ("", S.nominal) ]
      parsed
    |> List.filter (fun (label, _) -> label <> "")
  in
  let swept = List.concat_map expand_sweep (List.rev !sweeps) in
  let stresses = List.rev !stresses @ swept in
  (* stress physicality *)
  List.iter
    (fun (label, s) ->
      match S.validate s with
      | () -> ()
      | exception Invalid_argument msg ->
        diag
          (Bad_value
             { section = "stress"; field = label; value = ""; msg }))
    stresses;
  (* duplicate labels *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (label, _) ->
      if Hashtbl.mem seen label then diag (Duplicate_label { label })
      else Hashtbl.add seen label ())
    stresses;
  (* sim section *)
  let steps_per_cycle = ref None
  and deadline = ref None
  and jobs = ref None in
  List.iter
    (List.iter (fun field ->
         match field with
         | List [ Atom ("steps-per-cycle" | "steps_per_cycle"); Atom v ] ->
           steps_per_cycle := int_of "sim" "steps-per-cycle" v
         | List [ Atom "deadline"; Atom v ] ->
           deadline := float_of "sim" "deadline" v
         | List [ Atom "jobs"; Atom v ] -> jobs := int_of "sim" "jobs" v
         | List (Atom f :: _) ->
           diag
             (Bad_value
                {
                  section = "sim";
                  field = f;
                  value = "";
                  msg = "expected steps-per-cycle | deadline | jobs";
                })
         | _ ->
           diag
             (Bad_value
                {
                  section = "sim";
                  field = "-";
                  value = "";
                  msg = "expected (field value) pairs";
                })))
    (List.rev !sim_fields);
  (* border section *)
  let r_min = ref W.default.W.r_min
  and r_max = ref W.default.W.r_max
  and grid_points = ref W.default.W.grid_points
  and rel_tol = ref W.default.W.rel_tol
  and strategy = ref W.default.W.strategy in
  List.iter
    (List.iter (fun field ->
         match field with
         | List [ Atom ("r-min" | "r_min"); Atom v ] ->
           Option.iter (fun f -> r_min := f) (float_of "border" "r-min" v)
         | List [ Atom ("r-max" | "r_max"); Atom v ] ->
           Option.iter (fun f -> r_max := f) (float_of "border" "r-max" v)
         | List [ Atom ("grid-points" | "grid_points"); Atom v ] ->
           Option.iter (fun i -> grid_points := i) (int_of "border" "grid-points" v)
         | List [ Atom ("rel-tol" | "rel_tol"); Atom v ] ->
           Option.iter (fun f -> rel_tol := f) (float_of "border" "rel-tol" v)
         | List [ Atom "strategy"; Atom v ] -> begin
           match W.strategy_of_name v with
           | Some s -> strategy := s
           | None ->
             diag
               (Bad_value
                  {
                    section = "border";
                    field = "strategy";
                    value = v;
                    msg = "expected grid | adaptive";
                  })
         end
         | List (Atom f :: _) ->
           diag
             (Bad_value
                {
                  section = "border";
                  field = f;
                  value = "";
                  msg =
                    "expected r-min | r-max | grid-points | rel-tol | strategy";
                })
         | _ ->
           diag
             (Bad_value
                {
                  section = "border";
                  field = "-";
                  value = "";
                  msg = "expected (field value) pairs";
                })))
    (List.rev !border_fields);
  if !r_min <= 0.0 || !r_max <= !r_min then
    diag
      (Bad_value
         {
           section = "border";
           field = "r-min/r-max";
           value = Printf.sprintf "%g..%g" !r_min !r_max;
           msg = "need 0 < r-min < r-max";
         });
  if !grid_points < 2 then
    diag
      (Bad_value
         {
           section = "border";
           field = "grid-points";
           value = string_of_int !grid_points;
           msg = "need at least 2";
         });
  if !rel_tol <= 0.0 then
    diag
      (Bad_value
         {
           section = "border";
           field = "rel-tol";
           value = Printf.sprintf "%g" !rel_tol;
           msg = "need a positive tolerance";
         });
  let window =
    match
      W.v ~r_min:!r_min ~r_max:!r_max ~grid_points:!grid_points
        ~rel_tol:!rel_tol ~strategy:!strategy ()
    with
    | w -> w
    | exception Invalid_argument _ ->
      (* only reachable when the explicit range checks above already
         diagnosed the culprit field, so [Invalid] is raised below and
         this placeholder is never observed *)
      W.default
  in
  if !name = None then diag (Missing_field { section = "campaign"; field = "name" });
  if !defects = [] then diag (Empty_section { section = "defects" });
  if stresses = [] then diag (Empty_section { section = "stress" });
  let config =
    match
      Sc.v ?steps_per_cycle:!steps_per_cycle ?deadline:!deadline ?jobs:!jobs
        ()
    with
    | c -> c
    | exception Invalid_argument msg ->
      diag (Bad_value { section = "sim"; field = "-"; value = ""; msg });
      Sc.default
  in
  (match List.rev !diags with [] -> () | ds -> raise (Invalid ds));
  {
    name = Option.get !name;
    defects = List.rev !defects;
    stresses;
    detections =
      (match List.rev !detections with [] -> [ Best ] | ds -> ds);
    config;
    window;
  }

let load path =
  of_string ~source:path (In_channel.with_open_text path In_channel.input_all)

let pp ppf m =
  Format.fprintf ppf
    "@[<v2>campaign %s:@ %d defect placement(s), %d stress setting(s), %d \
     detection(s)@ border: %a@ %a@]"
    m.name (List.length m.defects)
    (List.length m.stresses)
    (List.length m.detections)
    W.pp m.window
    (Format.pp_print_list ~pp_sep:Format.pp_print_space (fun ppf (l, s) ->
         Format.fprintf ppf "%s: %a" l S.pp s))
    m.stresses

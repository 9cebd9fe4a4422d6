module S = Dramstress_dram.Stress

type scale = Linear | Log

let scale_name = function Linear -> "lin" | Log -> "log"

type t = {
  axis : S.axis;
  name : string;
  aliases : string list;
  unit_ : string;
  scale : scale;
  lo : float;
  hi : float;
  probe_values : S.t -> float list;
  nudge : S.t -> float -> S.t;
}

(* one notch on a log-scaled knob whose neutral value is 0: up enters
   the range at [lo] and multiplies by decades toward [hi]; down divides
   by decades and snaps back to 0 below [lo] *)
let log_notch ~lo ~hi current sign =
  if sign > 0.0 then
    if current <= 0.0 then lo else Float.min hi (current *. 10.0)
  else if current <= lo then 0.0
  else current /. 10.0

let all =
  [
    (* -- the paper's four ------------------------------------------- *)
    {
      axis = S.Cycle_time;
      name = "tcyc";
      aliases = [ "t_cyc"; "cycle-time" ];
      unit_ = "s";
      scale = Linear;
      lo = 20e-9;
      hi = 200e-9;
      probe_values =
        (fun st -> [ st.S.tcyc -. 5e-9; st.S.tcyc ]);
      nudge =
        (fun st sign ->
          S.with_tcyc st (Float.max 20e-9 (st.S.tcyc +. (sign *. 5e-9))));
    };
    {
      axis = S.Duty_cycle;
      name = "duty";
      aliases = [ "duty-cycle" ];
      unit_ = "";
      scale = Linear;
      lo = 0.2;
      hi = 0.8;
      probe_values =
        (fun st -> [ st.S.duty -. 0.15; st.S.duty; st.S.duty +. 0.15 ]);
      nudge =
        (fun st sign ->
          S.with_duty st
            (Float.max 0.2 (Float.min 0.8 (st.S.duty +. (sign *. 0.15)))));
    };
    {
      axis = S.Supply_voltage;
      name = "vdd";
      aliases = [ "v_dd"; "supply" ];
      unit_ = "V";
      scale = Linear;
      lo = 1.8;
      hi = 3.0;
      probe_values =
        (fun st -> [ st.S.vdd -. 0.3; st.S.vdd; st.S.vdd +. 0.3 ]);
      nudge = (fun st sign -> S.with_vdd st (st.S.vdd +. (sign *. 0.3)));
    };
    {
      axis = S.Temperature;
      name = "temp";
      aliases = [ "t"; "temperature" ];
      unit_ = "C";
      scale = Linear;
      lo = -33.0;
      hi = 87.0;
      probe_values = (fun st -> [ -33.0; st.S.temp_c; 87.0 ]);
      nudge =
        (fun st sign -> S.with_temp_c st (if sign > 0.0 then 87.0 else -33.0));
    };
    (* -- retention family ------------------------------------------- *)
    {
      axis = S.Wait_time;
      name = "wait";
      aliases = [ "t_wait"; "decay" ];
      unit_ = "s";
      scale = Log;
      lo = 0.01;
      hi = 120.0;
      probe_values = (fun st -> [ 0.0; Float.max 0.01 st.S.wait ]);
      nudge =
        (fun st sign ->
          S.with_wait st (log_notch ~lo:0.01 ~hi:120.0 st.S.wait sign));
    };
    {
      axis = S.Pattern;
      name = "pattern";
      aliases = [ "background" ];
      unit_ = "";
      scale = Linear;
      lo = 0.0;
      hi = 1.0;
      probe_values = (fun _ -> [ 0.0; 0.5; 1.0 ]);
      nudge =
        (fun st sign ->
          S.set st S.Pattern
            (Float.max 0.0
               (Float.min 1.0 (S.get st S.Pattern +. (sign *. 0.5)))));
    };
    {
      axis = S.Leak;
      name = "leak";
      aliases = [ "g_leak" ];
      unit_ = "S";
      scale = Log;
      lo = 1e-16;
      hi = 1e-10;
      probe_values = (fun st -> [ 0.0; Float.max 1e-13 st.S.leak ]);
      nudge =
        (fun st sign ->
          S.with_leak st (log_notch ~lo:1e-16 ~hi:1e-10 st.S.leak sign));
    };
    (* -- disturb family --------------------------------------------- *)
    {
      axis = S.Hammer;
      name = "hammer";
      aliases = [ "ham" ];
      unit_ = "";
      scale = Log;
      lo = 1.0;
      hi = 1000.0;
      probe_values =
        (fun st -> [ 0.0; Float.max 10.0 (float_of_int st.S.hammer) ]);
      nudge =
        (fun st sign ->
          S.with_hammer st
            (int_of_float
               (log_notch ~lo:10.0 ~hi:1000.0 (float_of_int st.S.hammer) sign)));
    };
    {
      axis = S.Couple;
      name = "couple";
      aliases = [ "c_couple"; "ccouple" ];
      unit_ = "C_s";
      scale = Linear;
      lo = 0.0;
      hi = 1.0;
      probe_values = (fun st -> [ 0.0; Float.max 0.2 st.S.couple ]);
      nudge =
        (fun st sign ->
          S.with_couple st
            (Float.max 0.0 (Float.min 1.0 (st.S.couple +. (sign *. 0.1)))));
    };
    (* -- timing-trim family ----------------------------------------- *)
    {
      axis = S.Twr_trim;
      name = "twr-trim";
      aliases = [ "twr_trim"; "twr" ];
      unit_ = "s";
      scale = Linear;
      lo = -20e-9;
      hi = 20e-9;
      probe_values = (fun st -> [ st.S.twr_trim; st.S.twr_trim +. 10e-9 ]);
      nudge =
        (fun st sign ->
          S.with_twr_trim st
            (Float.max (-20e-9)
               (Float.min 20e-9 (st.S.twr_trim +. (sign *. 5e-9)))));
    };
    {
      axis = S.Tras_trim;
      name = "tras-trim";
      aliases = [ "tras_trim"; "tras" ];
      unit_ = "s";
      scale = Linear;
      lo = -20e-9;
      hi = 20e-9;
      probe_values = (fun st -> [ st.S.tras_trim -. 10e-9; st.S.tras_trim ]);
      nudge =
        (fun st sign ->
          S.with_tras_trim st
            (Float.max (-20e-9)
               (Float.min 20e-9 (st.S.tras_trim +. (sign *. 5e-9)))));
    };
  ]

let of_axis axis =
  (* total by construction: the registry carries one entry per [S.axis]
     constructor, which [axes_covered] below lets tests pin *)
  List.find (fun e -> e.axis = axis) all

let find name =
  let name = String.lowercase_ascii name in
  List.find_opt (fun e -> e.name = name || List.mem name e.aliases) all

let names () = List.map (fun e -> e.name) all

let name_of_axis axis = (of_axis axis).name

(* ------------------------------------------------------------------ *)
(* sweep expansion                                                     *)
(* ------------------------------------------------------------------ *)

type range_error = Empty_range | Log_crosses_zero

let pp_range_error ppf = function
  | Empty_range -> Format.pp_print_string ppf "range min >= max"
  | Log_crosses_zero ->
    Format.pp_print_string ppf "log sweep crosses (or touches) zero"

let range ~scale ~lo ~hi n =
  if n < 1 then Error Empty_range
  else if lo >= hi then Error Empty_range
  else
    match scale with
    | Log when lo *. hi <= 0.0 -> Error Log_crosses_zero
    | Log ->
      let la = Float.log lo and lb = Float.log hi in
      Ok
        (List.init n (fun i ->
             if n = 1 then lo
             else
               Float.exp
                 (la +. ((lb -. la) *. float_of_int i /. float_of_int (n - 1)))))
    | Linear ->
      Ok
        (List.init n (fun i ->
             if n = 1 then lo
             else lo +. ((hi -. lo) *. float_of_int i /. float_of_int (n - 1))))

(* ------------------------------------------------------------------ *)
(* value rendering                                                     *)
(* ------------------------------------------------------------------ *)

let value_string e v =
  match e.axis with
  | S.Pattern -> S.pattern_name (S.pattern_of_float v)
  | S.Hammer -> string_of_int (int_of_float (Float.round v))
  | _ -> Printf.sprintf "%g" v

let pp ppf e =
  Format.fprintf ppf "%s [%s, %s, %g..%g]" e.name
    (if e.unit_ = "" then "-" else e.unit_)
    (scale_name e.scale) e.lo e.hi

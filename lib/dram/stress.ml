type pattern = All_0 | All_1 | Checkerboard

let pattern_name = function
  | All_0 -> "all0"
  | All_1 -> "all1"
  | Checkerboard -> "checkerboard"

let pattern_of_name s =
  match String.lowercase_ascii s with
  | "all0" | "all-0" | "0" -> Some All_0
  | "all1" | "all-1" | "1" -> Some All_1
  | "checkerboard" | "checker" | "cb" -> Some Checkerboard
  | _ -> None

(* the pattern's position on its (nominally discrete) stress axis: the
   sweep machinery treats every axis as a float, so the three patterns
   sit at 0, 1/2 and 1 and [pattern_of_float] snaps to the nearest *)
let float_of_pattern = function
  | All_0 -> 0.0
  | Checkerboard -> 0.5
  | All_1 -> 1.0

let pattern_of_float v =
  if v < 0.25 then All_0 else if v < 0.75 then Checkerboard else All_1

let pp_pattern ppf p = Format.pp_print_string ppf (pattern_name p)

type t = {
  tcyc : float;
  duty : float;
  vdd : float;
  temp_c : float;
  wait : float;
  pattern : pattern;
  hammer : int;
  leak : float;
  couple : float;
  twr_trim : float;
  tras_trim : float;
}

let nominal =
  {
    tcyc = 60e-9;
    duty = 0.5;
    vdd = 2.4;
    temp_c = 27.0;
    wait = 0.0;
    pattern = All_1;
    hammer = 0;
    leak = 0.0;
    couple = 0.0;
    twr_trim = 0.0;
    tras_trim = 0.0;
  }

let temp_kelvin sc = Dramstress_util.Units.celsius_to_kelvin sc.temp_c

let with_tcyc sc tcyc = { sc with tcyc }
let with_duty sc duty = { sc with duty }
let with_vdd sc vdd = { sc with vdd }
let with_temp_c sc temp_c = { sc with temp_c }
let with_wait sc wait = { sc with wait }
let with_pattern sc pattern = { sc with pattern }
let with_hammer sc hammer = { sc with hammer }
let with_leak sc leak = { sc with leak }
let with_couple sc couple = { sc with couple }
let with_twr_trim sc twr_trim = { sc with twr_trim }
let with_tras_trim sc tras_trim = { sc with tras_trim }

(* every axis, always, by name: the stress part of a store key *)
let key
    { tcyc; duty; vdd; temp_c; wait; pattern; hammer; leak; couple; twr_trim;
      tras_trim } =
  Printf.sprintf
    "tcyc=%h,duty=%h,vdd=%h,temp_c=%h,wait=%h,pattern=%s,hammer=%d,leak=%h,\
     couple=%h,twr_trim=%h,tras_trim=%h"
    tcyc duty vdd temp_c wait (pattern_name pattern) hammer leak couple
    twr_trim tras_trim

let validate sc =
  if sc.tcyc <= 0.0 then invalid_arg "Stress: tcyc <= 0";
  if sc.duty <= 0.0 || sc.duty >= 1.0 then invalid_arg "Stress: duty not in (0,1)";
  if sc.vdd <= 0.0 then invalid_arg "Stress: vdd <= 0";
  if sc.temp_c < -273.15 then invalid_arg "Stress: temperature below 0 K";
  if sc.wait < 0.0 then invalid_arg "Stress: wait < 0";
  if sc.hammer < 0 then invalid_arg "Stress: hammer < 0";
  if sc.leak < 0.0 then invalid_arg "Stress: leak < 0";
  if sc.couple < 0.0 then invalid_arg "Stress: couple < 0";
  if Float.abs sc.twr_trim >= sc.tcyc then
    invalid_arg "Stress: |twr_trim| >= tcyc";
  if Float.abs sc.tras_trim >= sc.tcyc then
    invalid_arg "Stress: |tras_trim| >= tcyc"

let pp ppf sc =
  let u = Dramstress_util.Units.pp_si in
  Format.fprintf ppf "tcyc=%aS duty=%.2f Vdd=%.2f V T=%+.0f C" u sc.tcyc
    sc.duty sc.vdd sc.temp_c;
  if sc.wait <> 0.0 then Format.fprintf ppf " wait=%aS" u sc.wait;
  if sc.pattern <> All_1 then
    Format.fprintf ppf " pattern=%a" pp_pattern sc.pattern;
  if sc.hammer <> 0 then Format.fprintf ppf " hammer=%d" sc.hammer;
  if sc.leak <> 0.0 then Format.fprintf ppf " leak=%aS" u sc.leak;
  if sc.couple <> 0.0 then Format.fprintf ppf " couple=%.3f" sc.couple;
  if sc.twr_trim <> 0.0 then Format.fprintf ppf " twr_trim=%aS" u sc.twr_trim;
  if sc.tras_trim <> 0.0 then
    Format.fprintf ppf " tras_trim=%aS" u sc.tras_trim

type axis =
  | Cycle_time
  | Duty_cycle
  | Supply_voltage
  | Temperature
  | Wait_time
  | Pattern
  | Hammer
  | Leak
  | Couple
  | Twr_trim
  | Tras_trim

let pp_axis ppf = function
  | Cycle_time -> Format.pp_print_string ppf "t_cyc"
  | Duty_cycle -> Format.pp_print_string ppf "duty"
  | Supply_voltage -> Format.pp_print_string ppf "V_dd"
  | Temperature -> Format.pp_print_string ppf "T"
  | Wait_time -> Format.pp_print_string ppf "t_wait"
  | Pattern -> Format.pp_print_string ppf "pattern"
  | Hammer -> Format.pp_print_string ppf "hammer"
  | Leak -> Format.pp_print_string ppf "g_leak"
  | Couple -> Format.pp_print_string ppf "c_couple"
  | Twr_trim -> Format.pp_print_string ppf "tWR_trim"
  | Tras_trim -> Format.pp_print_string ppf "tRAS_trim"

let set sc axis v =
  match axis with
  | Cycle_time -> with_tcyc sc v
  | Duty_cycle -> with_duty sc v
  | Supply_voltage -> with_vdd sc v
  | Temperature -> with_temp_c sc v
  | Wait_time -> with_wait sc v
  | Pattern -> with_pattern sc (pattern_of_float v)
  | Hammer -> with_hammer sc (int_of_float (Float.round v))
  | Leak -> with_leak sc v
  | Couple -> with_couple sc v
  | Twr_trim -> with_twr_trim sc v
  | Tras_trim -> with_tras_trim sc v

let get sc = function
  | Cycle_time -> sc.tcyc
  | Duty_cycle -> sc.duty
  | Supply_voltage -> sc.vdd
  | Temperature -> sc.temp_c
  | Wait_time -> sc.wait
  | Pattern -> float_of_pattern sc.pattern
  | Hammer -> float_of_int sc.hammer
  | Leak -> sc.leak
  | Couple -> sc.couple
  | Twr_trim -> sc.twr_trim
  | Tras_trim -> sc.tras_trim

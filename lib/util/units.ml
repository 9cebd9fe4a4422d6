let kilo x = x *. 1e3
let micro x = x *. 1e-6
let nano x = x *. 1e-9
let femto x = x *. 1e-15

let celsius_to_kelvin t = t +. 273.15
let kelvin_to_celsius t = t -. 273.15

let k_over_q = 8.617333262e-5

let thermal_voltage t_kelvin = k_over_q *. t_kelvin

let prefixes =
  [ (1e9, "G"); (1e6, "M"); (1e3, "k"); (1.0, ""); (1e-3, "m"); (1e-6, "u");
    (1e-9, "n"); (1e-12, "p"); (1e-15, "f") ]

let pp_si ppf v =
  if v = 0.0 then Format.fprintf ppf "0"
  else begin
    let mag = Float.abs v in
    let scale, prefix =
      let rec pick = function
        | [ (s, p) ] -> (s, p)
        | (s, p) :: rest -> if mag >= s then (s, p) else pick rest
        | [] -> (1.0, "")
      in
      pick prefixes
    in
    Format.fprintf ppf "%.4g %s" (v /. scale) prefix
  end

let si_string v = Format.asprintf "%a" pp_si v

module O = Dramstress_dram.Ops
module S = Dramstress_dram.Stress
module D = Dramstress_defect.Defect

type step = Write of int | Read of int | Wait of float | Hammer of int

type t = { steps : step list }

let v steps =
  if steps = [] then invalid_arg "Detection.v: empty";
  List.iter
    (fun s ->
      match s with
      | Write b | Read b ->
        if b <> 0 && b <> 1 then invalid_arg "Detection.v: bit not 0/1"
      | Wait d -> if d <= 0.0 then invalid_arg "Detection.v: non-positive wait"
      | Hammer n ->
        if n < 1 then invalid_arg "Detection.v: non-positive hammer count")
    steps;
  { steps }

let standard ~victim ~primes =
  if primes < 1 then invalid_arg "Detection.standard: primes < 1";
  if victim <> 0 && victim <> 1 then invalid_arg "Detection.standard: victim";
  v
    (List.init primes (fun _ -> Write (1 - victim))
    @ [ Write victim; Read victim ])

let retention ~victim ~pause =
  v [ Write victim; Wait pause; Read victim ]

let hammer ~victim ~count =
  v [ Write victim; Hammer count; Read victim ]

let ops cond =
  List.map
    (fun s ->
      match s with
      | Write 0 -> O.W0
      | Write _ -> O.W1
      | Read _ -> O.R
      | Wait d -> O.Pause d
      | Hammer n -> O.Ham n)
    cond.steps

let expected_reads cond =
  List.filter_map
    (function Read b -> Some b | Write _ | Wait _ | Hammer _ -> None)
    cond.steps

let first_write cond =
  List.find_map
    (function Write b -> Some b | Read _ | Wait _ | Hammer _ -> None)
    cond.steps

let initial_vc cond ~stress ~defect =
  let bit = match first_write cond with Some b -> 1 - b | None -> 1 in
  let physical =
    match defect.D.placement with D.True_bl -> bit | D.Comp_bl -> 1 - bit
  in
  if physical = 1 then stress.S.vdd else 0.0

let judge ?(min_separation = 0.5) cond outcome =
  let reads =
    List.filter_map
      (fun r ->
        match (r.O.sensed, r.O.separation) with
        | Some b, Some s -> Some (b, s)
        | _, _ -> None)
      outcome.O.results
  in
  let expected = expected_reads cond in
  (* lengths always agree: one sensed bit per Read step *)
  List.exists2
    (fun (actual, separation) e -> actual <> e || separation < min_separation)
    reads expected

let detects ?config ?min_separation ~stress ~defect cond =
  let vc_init = initial_vc cond ~stress ~defect in
  let outcome = O.run ?config ~stress ~defect ~vc_init (ops cond) in
  judge ?min_separation cond outcome

let pp ppf cond =
  let pp_step ppf = function
    | Write b -> Format.fprintf ppf "w%d" b
    | Read b -> Format.fprintf ppf "r%d" b
    | Wait d -> Format.fprintf ppf "del(%a)" Dramstress_util.Units.pp_si d
    | Hammer n -> Format.fprintf ppf "ham(%d)" n
  in
  Format.fprintf ppf "{... %a ...}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       pp_step)
    cond.steps

let to_string cond = Format.asprintf "%a" pp cond

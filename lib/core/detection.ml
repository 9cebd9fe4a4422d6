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

(* tokens split on blanks and commas; [r] reads the last written bit
   (0 before any write), [p<s>] pauses, [ham] / [ham<n>] hammers *)
let of_string s =
  let tokens =
    String.map (function ',' | '\t' | '\n' | '\r' -> ' ' | c -> c) s
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  let suffix t k = String.sub t k (String.length t - k) in
  let step last tok =
    match String.lowercase_ascii tok with
    | "w0" -> Ok (Write 0, 0)
    | "w1" -> Ok (Write 1, 1)
    | "r0" -> Ok (Read 0, last)
    | "r1" -> Ok (Read 1, last)
    | "r" -> Ok (Read last, last)
    | "ham" -> Ok (Hammer 1, last)
    | t when String.starts_with ~prefix:"ham" t -> (
      match int_of_string_opt (suffix t 3) with
      | Some n when n >= 1 -> Ok (Hammer n, last)
      | Some _ | None ->
        Error
          (Printf.sprintf "bad hammer count in %S (need ham<n>, n >= 1)" tok))
    | t when String.starts_with ~prefix:"p" t -> (
      match float_of_string_opt (suffix t 1) with
      | Some d when Float.is_finite d && d > 0.0 -> Ok (Wait d, last)
      | Some _ | None ->
        Error
          (Printf.sprintf "bad pause in %S (need p<seconds>, finite and > 0)"
             tok))
    | _ ->
      Error
        (Printf.sprintf
           "bad token %S (expected w0|w1|r|r0|r1|p<seconds>|ham<n>)" tok)
  in
  let rec go acc last = function
    | [] when acc = [] -> Error "empty detection condition"
    | [] -> Ok (v (List.rev acc))
    | tok :: rest -> (
      match step last tok with
      | Ok (st, last) -> go (st :: acc) last rest
      | Error _ as e -> e)
  in
  go [] 0 tokens

(* the canonical text, exact ([%h] pauses): [of_string] reads it back *)
let encode cond =
  String.concat ","
    (List.map
       (function
         | Write b -> Printf.sprintf "w%d" b
         | Read b -> Printf.sprintf "r%d" b
         | Wait t -> Printf.sprintf "p%h" t
         | Hammer n -> Printf.sprintf "ham%d" n)
       cond.steps)

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

(* the least bit-line separation at strobe time a tester's VOH/VOL
   levels accept, V *)
let min_separation = 0.5

let judge cond outcome =
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

let detects ?config ~stress ~defect cond =
  let vc_init = initial_vc cond ~stress ~defect in
  let outcome = O.run ?config ~stress ~defect ~vc_init (ops cond) in
  judge cond outcome

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

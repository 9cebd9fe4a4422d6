exception Parse_error of { line : int; message : string }

let fail line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { line; message })) fmt

(* ------------------------------------------------------------------ *)
(* values with SI suffixes                                             *)
(* ------------------------------------------------------------------ *)

let suffixes =
  [ ("meg", 1e6); ("t", 1e12); ("g", 1e9); ("k", 1e3); ("m", 1e-3);
    ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15) ]

let units = [ "v"; "a"; "s"; "hz"; "ohm"; "f" ]

(* number, possibly with a multiplier suffix; multiplier suffixes take
   precedence over unit tails ("100f" is 100 femto-something) *)
let parse_raw s =
  let with_suffix =
    List.find_map
      (fun (suf, mult) ->
        let n = String.length s and m = String.length suf in
        if n > m && String.sub s (n - m) m = suf then
          match float_of_string_opt (String.sub s 0 (n - m)) with
          | Some v -> Some (v *. mult)
          | None -> None
        else None)
      suffixes
  in
  match with_suffix with
  | Some v -> Some v
  | None -> float_of_string_opt s

let parse_value s =
  let s = String.lowercase_ascii (String.trim s) in
  let number =
    match parse_raw s with
    | Some v -> Some v
    | None ->
      (* retry with one unit tail stripped: "2.4v", "60ns", "100ff" *)
      List.find_map
        (fun u ->
          let n = String.length s and m = String.length u in
          if n > m && String.sub s (n - m) m = u then
            parse_raw (String.sub s 0 (n - m))
          else None)
        units
  in
  match number with
  | _ when s = "" -> Error "empty value"
  | Some v when Float.is_finite v -> Ok v
  | Some _ -> Error ("non-finite value " ^ s)
  | None -> Error ("bad value " ^ s)

(* a value on card [lineno], or its typed error *)
let value lineno s =
  match parse_value s with Ok v -> v | Error m -> fail lineno "%s" m

(* ------------------------------------------------------------------ *)
(* tokenization: split a card into words, keeping (...) groups whole    *)
(* ------------------------------------------------------------------ *)

let strip_comment line =
  match String.index_opt line ';' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokenize lineno s =
  let n = String.length s in
  let toks = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  let flush () =
    if Buffer.length buf > 0 then begin
      toks := Buffer.contents buf :: !toks;
      Buffer.clear buf
    end
  in
  for i = 0 to n - 1 do
    let c = s.[i] in
    match c with
    | '(' ->
      incr depth;
      Buffer.add_char buf c
    | ')' ->
      decr depth;
      if !depth < 0 then fail lineno "unbalanced ')'";
      Buffer.add_char buf c
    | ' ' | '\t' -> if !depth > 0 then Buffer.add_char buf ' ' else flush ()
    | '=' ->
      (* keep key=value together; also tolerate spaces handled above *)
      Buffer.add_char buf '='
    | _ -> Buffer.add_char buf c
  done;
  if !depth <> 0 then fail lineno "unbalanced '('";
  flush ();
  List.rev !toks

(* split "PULSE(0 1 2n ...)" into ("pulse", [args]) *)
let call_args lineno tok =
  match String.index_opt tok '(' with
  | None -> None
  | Some i ->
    let n = String.length tok in
    if tok.[n - 1] <> ')' then fail lineno "text after ')' in %s" tok;
    let name = String.lowercase_ascii (String.sub tok 0 i) in
    let inner = String.sub tok (i + 1) (n - i - 2) in
    let args =
      String.split_on_char ' ' inner
      |> List.concat_map (String.split_on_char ',')
      |> List.filter (( <> ) "")
    in
    Some (name, args)

let parse_wave lineno toks =
  match toks with
  | [] -> fail lineno "missing source value"
  | first :: rest -> begin
    match String.lowercase_ascii first with
    | "dc" -> begin
      match rest with
      | [ v ] -> Waveform.dc (value lineno v)
      | _ -> fail lineno "DC takes one value"
    end
    | _ -> begin
      match call_args lineno first with
      | Some ("pulse", args) -> begin
        match List.map (value lineno) args with
        | [ v0; v1; delay; rise; width; fall ] ->
          Waveform.pulse ~v0 ~v1 ~delay ~rise ~width ~fall ()
        | [ v0; v1; delay; rise; width; fall; period ] ->
          Waveform.pulse ~period ~v0 ~v1 ~delay ~rise ~width ~fall ()
        | _ -> fail lineno "PULSE takes 6 or 7 values"
      end
      | Some ("pwl", args) -> begin
        let values = List.map (value lineno) args in
        let rec pair = function
          | [] -> []
          | t :: v :: rest -> (t, v) :: pair rest
          | [ _ ] -> fail lineno "PWL needs an even number of values"
        in
        match pair values with
        | [] -> fail lineno "PWL needs at least one point"
        | pts -> Waveform.pwl pts
      end
      | Some (fn, _) -> fail lineno "unknown source function %s" fn
      | None -> begin
        (* bare value = DC *)
        match rest with
        | [] -> Waveform.dc (value lineno first)
        | _ -> fail lineno "unexpected tokens after source value"
      end
    end
  end

(* key=value parameter list *)
let params lineno toks =
  List.map
    (fun tok ->
      match String.index_opt tok '=' with
      | Some i ->
        ( String.lowercase_ascii (String.sub tok 0 i),
          String.sub tok (i + 1) (String.length tok - i - 1) )
      | None -> fail lineno "expected key=value, got %s" tok)
    toks

(* ------------------------------------------------------------------ *)
(* deck parsing                                                        *)
(* ------------------------------------------------------------------ *)

type model_entry = Mosfet.model

let parse_model lineno toks : string * model_entry =
  (* .MODEL name NMOS|PMOS (key=value ...)  -- parens optional *)
  let cleaned =
    List.map
      (fun t ->
        let t = String.trim t in
        let t =
          if String.length t > 0 && t.[0] = '(' then
            String.sub t 1 (String.length t - 1)
          else t
        in
        if String.length t > 0 && t.[String.length t - 1] = ')' then
          String.sub t 0 (String.length t - 1)
        else t)
      toks
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (( <> ) "")
  in
  match cleaned with
  | name :: polarity :: rest ->
    let ps = params lineno rest in
    let get key default =
      match List.assoc_opt key ps with
      | Some v -> value lineno v
      | None -> default
    in
    let vt0 = get "vt0" 0.5 and kp = get "kp" 1e-4 in
    let lambda = get "lambda" 0.05 in
    let vt_tc = get "tc" 2e-3 and mu_exp = get "mu" 1.5 in
    let n_sub = get "n" 1.4 in
    let mk =
      match String.lowercase_ascii polarity with
      | "nmos" -> Mosfet.nmos
      | "pmos" -> Mosfet.pmos
      | p -> fail lineno "unknown model polarity %s" p
    in
    ( String.lowercase_ascii name,
      mk ~lambda ~vt_tc ~mu_exp ~n_sub ~name ~vt0 ~kp () )
  | _ -> fail lineno ".MODEL needs a name and a polarity"

let parse source =
  let nl = Netlist.create () in
  let models = Hashtbl.create 8 in
  let parse_card lineno line =
    let toks = tokenize lineno line in
    match toks with
    | [] -> ()
    | card :: rest -> begin
      let kind = Char.lowercase_ascii card.[0] in
      match kind with
      | '.' -> begin
        match String.lowercase_ascii card with
        | ".model" ->
          let name, model = parse_model lineno rest in
          Hashtbl.replace models name model
        | ".end" | ".ends" -> ()
        | directive -> fail lineno "unsupported directive %s" directive
      end
      | 'r' -> begin
        match rest with
        | [ a; b; v ] -> Netlist.resistor nl ~name:card a b (value lineno v)
        | _ -> fail lineno "R card: R<name> a b value"
      end
      | 'c' -> begin
        match rest with
        | [ a; b; v ] ->
          Netlist.capacitor nl ~name:card a b (value lineno v)
        | _ -> fail lineno "C card: C<name> a b value"
      end
      | 'v' -> begin
        match rest with
        | a :: b :: wave_toks ->
          Netlist.vsource nl ~name:card a b (parse_wave lineno wave_toks)
        | _ -> fail lineno "V card: V<name> pos neg <source>"
      end
      | 'i' -> begin
        match rest with
        | a :: b :: wave_toks ->
          Netlist.isource nl ~name:card a b (parse_wave lineno wave_toks)
        | _ -> fail lineno "I card: I<name> pos neg <source>"
      end
      | 'm' -> begin
        match rest with
        | d :: g :: s :: model_name :: extra ->
          let model =
            match
              Hashtbl.find_opt models (String.lowercase_ascii model_name)
            with
            | Some m -> m
            | None -> fail lineno "unknown model %s" model_name
          in
          let m =
            match params lineno extra with
            | [] -> 1.0
            | ps -> begin
              match List.assoc_opt "m" ps with
              | Some v ->
                let m = value lineno v in
                if m <= 0.0 then fail lineno "M must be positive";
                m
              | None -> fail lineno "unknown MOSFET parameters"
            end
          in
          Netlist.mosfet nl ~name:card ~d ~g ~s ~model ~m ()
        | _ -> fail lineno "M card: M<name> d g s model [M=n]"
      end
      | 's' -> begin
        match rest with
        | a :: b :: wave_tok :: extra ->
          let ctrl = parse_wave lineno [ wave_tok ] in
          let ps = params lineno extra in
          let get key default =
            match List.assoc_opt key ps with
            | Some v -> value lineno v
            | None -> default
          in
          Netlist.switch nl ~name:card a b ~ctrl ~g_on:(get "gon" 1e-2)
            ~g_off:(get "goff" 1e-12) ~threshold:(get "vt" 0.5) ()
        | _ -> fail lineno "S card: S<name> a b <ctrl> [GON= GOFF= VT=]"
      end
      | c -> fail lineno "unsupported card '%c'" c
    end
  in
  let lines = String.split_on_char '\n' source in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim (strip_comment raw) in
      if line = "" || line.[0] = '*' then ()
      else
        (* the constructors' own preconditions (a non-positive R or C,
           a duplicate name, a pulse with a negative duration, PWL
           times that do not increase, a model with KP <= 0) are
           malformed cards too *)
        try parse_card lineno line with Invalid_argument m -> fail lineno "%s" m)
    lines;
  nl

let parse_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> parse (In_channel.input_all ic))

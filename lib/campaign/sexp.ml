(* The campaign layer's one s-expression reader and printer: manifests,
   service frames and sandbox tasks share it, so a rendering always
   reads back, comments and line numbers included. *)

type t = Atom of string | List of t list

(* ---- rendering ---- *)

let needs_quoting s =
  s = ""
  || String.exists
       (function
         | ' ' | '(' | ')' | '"' | '\n' | '\t' | '\r' | '\\' | ';' -> true
         | _ -> false)
       s

let rec print buf = function
  | Atom s when needs_quoting s ->
    Buffer.add_char buf '"';
    String.iter
      (function
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | '\r' -> Buffer.add_string buf "\\r"
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'
  | Atom s -> Buffer.add_string buf s
  | List xs ->
    Buffer.add_char buf '(';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ' ';
        print buf x)
      xs;
    Buffer.add_char buf ')'

let to_string x =
  let b = Buffer.create 256 in
  print b x;
  Buffer.contents b

(* ---- parsing ---- *)

exception Parse_failed of int * string

let parse_all src =
  let n = String.length src in
  let line = ref 1 in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () =
    if !pos < n && src.[!pos] = '\n' then incr line;
    incr pos
  in
  let fail msg = raise (Parse_failed (!line, msg)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\r' | '\n') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      while peek () <> None && peek () <> Some '\n' do advance () done;
      skip_ws ()
    | _ -> ()
  in
  let read_string () =
    advance () (* opening quote *);
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some c ->
          Buffer.add_char buf
            (match c with 'n' -> '\n' | 't' -> '\t' | 'r' -> '\r' | c -> c);
          advance ()
        | None -> fail "unterminated escape");
        go ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let read_atom () =
    let start = !pos in
    while
      match peek () with
      | Some (' ' | '\t' | '\r' | '\n' | '(' | ')' | ';' | '"') | None -> false
      | Some _ -> true
    do
      advance ()
    done;
    String.sub src start (!pos - start)
  in
  let rec read () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | None -> fail "unclosed '('"
        | Some ')' -> advance ()
        | _ ->
          items := read () :: !items;
          loop ()
      in
      loop ();
      List (List.rev !items)
    | Some ')' -> fail "unexpected ')'"
    | Some '"' -> Atom (read_string ())
    | _ -> Atom (read_atom ())
  in
  let rec read_all acc =
    skip_ws ();
    if !pos >= n then List.rev acc else read_all (read () :: acc)
  in
  match read_all [] with
  | xs -> Ok xs
  | exception Parse_failed (line, msg) -> Error (line, msg)

let of_string s =
  match parse_all s with
  | Ok [ x ] -> Ok x
  | Ok [] -> Error "unexpected end of input"
  | Ok _ -> Error "trailing bytes after s-expression"
  | Error (_, msg) -> Error msg

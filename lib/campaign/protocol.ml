(* Wire protocol of the campaign service: small s-expressions in
   length-prefixed frames over a local Unix-domain socket.

   A frame is an 8-hex-digit payload length followed by exactly that
   many bytes of rendered s-expression. Hex keeps the header fixed
   width and human-greppable in captures; the length prefix means
   neither side ever scans for a terminator inside manifest text. *)

type sexp = Sexp.t = Atom of string | List of sexp list

(* ---- framing ---- *)

(* well above any manifest or rendered diff, well below a typo'd header *)
let max_frame = 16 * 1024 * 1024

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

let write_frame fd x =
  let payload = Bytes.of_string (Sexp.to_string x) in
  let header = Bytes.of_string (Printf.sprintf "%08x" (Bytes.length payload)) in
  write_all fd header 0 8;
  write_all fd payload 0 (Bytes.length payload)

(* [deadline] is an absolute instant: once a frame has started
   arriving, every further byte must land before it, enforced with
   [Unix.select] ahead of each read — the defence against slowloris
   peers that trickle half a frame and hold the connection hostage. *)
let read_exact ?deadline fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off >= len then `Ok buf
    else begin
      let ready =
        match deadline with
        | None -> `Ready
        | Some d ->
          let rec wait () =
            let remaining = d -. Unix.gettimeofday () in
            if remaining <= 0.0 then `Timeout
            else begin
              match Unix.select [ fd ] [] [] remaining with
              | [], _, _ -> `Timeout
              | _ -> `Ready
              | exception Unix.Unix_error (EINTR, _, _) -> wait ()
            end
          in
          wait ()
      in
      match ready with
      | `Timeout -> `Timeout
      | `Ready -> begin
        match Unix.read fd buf off (len - off) with
        | 0 -> `Eof
        | n -> go (off + n)
        | exception Unix.Unix_error (EINTR, _, _) -> go off
      end
    end
  in
  go 0

let read_frame ?frame_timeout fd =
  (* Block indefinitely for the first byte: an idle keep-alive client
     is welcome to sit silent between requests. The deadline starts
     the moment a frame begins. *)
  let first = Bytes.create 1 in
  let rec first_read () =
    match Unix.read fd first 0 1 with
    | 0 -> Error `Eof
    | _ -> Ok ()
    | exception Unix.Unix_error (EINTR, _, _) -> first_read ()
  in
  match first_read () with
  | Error e -> Error e
  | Ok () -> (
    let deadline =
      Option.map (fun t -> Unix.gettimeofday () +. t) frame_timeout
    in
    match read_exact ?deadline fd 7 with
    | `Eof -> Error `Eof
    | `Timeout -> Error `Timeout
    | `Ok rest -> (
      let h = Bytes.to_string first ^ Bytes.to_string rest in
      match int_of_string_opt ("0x" ^ h) with
      | None -> Error (`Protocol "bad frame header")
      | Some len when len < 0 || len > max_frame ->
        Error (`Protocol "oversized frame")
      | Some len -> (
        match read_exact ?deadline fd len with
        | `Eof -> Error `Eof
        | `Timeout -> Error `Timeout
        | `Ok payload -> (
          match Sexp.of_string (Bytes.to_string payload) with
          | Ok x -> Ok x
          | Error m -> Error (`Protocol m)))))

(* ---- typed requests and responses ---- *)

type request =
  | Submit of { manifest : string; jobs : int option }
  | Status
  | Query of string
  | Diff of { a : string; b : string }
  | Merge of string
  | Counters
  | Shutdown

type point_status = Reused | Simulated | Deduped | Failed

type response =
  | Point of { descr : string; status : point_status; payload : string }
  | Done of {
      planned : int;
      reused : int;
      simulated : int;
      deduped : int;
      failed : int;
    }
  | Status_report of {
      name : string;
      engine : string;
      records : int;
      shards : int;
      inflight : int;
    }
  | Found of string
  | Not_found
  | Diff_report of string
  | Merged of { added : int; replaced : int; kept : int }
  | Counter_values of (string * int) list
  | Busy of { retry_after : float }
  | Draining
  | Bye
  | Error_msg of string

let kv name v = List [ Atom name; Atom v ]
let kvi name v = kv name (string_of_int v)

let field name items =
  List.find_map
    (function
      | List [ Atom n; Atom v ] when n = name -> Some v
      | _ -> None)
    items

let int_field name items = Option.bind (field name items) int_of_string_opt

let string_of_point_status = function
  | Reused -> "reused"
  | Simulated -> "simulated"
  | Deduped -> "deduped"
  | Failed -> "failed"

let point_status_of_string = function
  | "reused" -> Some Reused
  | "simulated" -> Some Simulated
  | "deduped" -> Some Deduped
  | "failed" -> Some Failed
  | _ -> None

let encode_request = function
  | Submit { manifest; jobs } ->
    List
      (Atom "submit" :: kv "manifest" manifest
      :: (match jobs with Some j -> [ kvi "jobs" j ] | None -> []))
  | Status -> List [ Atom "status" ]
  | Query key -> List [ Atom "query"; Atom key ]
  | Diff { a; b } -> List [ Atom "diff"; kv "a" a; kv "b" b ]
  | Merge dir -> List [ Atom "merge"; Atom dir ]
  | Counters -> List [ Atom "counters" ]
  | Shutdown -> List [ Atom "shutdown" ]

let decode_request = function
  | List (Atom "submit" :: items) -> (
    match field "manifest" items with
    | Some manifest -> Ok (Submit { manifest; jobs = int_field "jobs" items })
    | None -> Error "submit: missing manifest")
  | List [ Atom "status" ] -> Ok Status
  | List [ Atom "query"; Atom key ] -> Ok (Query key)
  | List (Atom "diff" :: items) -> (
    match (field "a" items, field "b" items) with
    | Some a, Some b -> Ok (Diff { a; b })
    | _ -> Error "diff: missing side")
  | List [ Atom "merge"; Atom dir ] -> Ok (Merge dir)
  | List [ Atom "counters" ] -> Ok Counters
  | List [ Atom "shutdown" ] -> Ok Shutdown
  | x -> Error ("unknown request: " ^ Sexp.to_string x)

let encode_response = function
  | Point { descr; status; payload } ->
    List
      [
        Atom "point";
        kv "descr" descr;
        kv "status" (string_of_point_status status);
        kv "payload" payload;
      ]
  | Done { planned; reused; simulated; deduped; failed } ->
    List
      [
        Atom "done";
        kvi "planned" planned;
        kvi "reused" reused;
        kvi "simulated" simulated;
        kvi "deduped" deduped;
        kvi "failed" failed;
      ]
  | Status_report { name; engine; records; shards; inflight } ->
    List
      [
        Atom "status";
        kv "name" name;
        kv "engine" engine;
        kvi "records" records;
        kvi "shards" shards;
        kvi "inflight" inflight;
      ]
  | Found v -> List [ Atom "found"; Atom v ]
  | Not_found -> List [ Atom "not-found" ]
  | Diff_report text -> List [ Atom "diff-report"; Atom text ]
  | Merged { added; replaced; kept } ->
    List
      [ Atom "merged"; kvi "added" added; kvi "replaced" replaced;
        kvi "kept" kept ]
  | Counter_values cs ->
    List (Atom "counters" :: List.map (fun (n, v) -> kvi n v) cs)
  | Busy { retry_after } ->
    (* %h so the hint round-trips exactly *)
    List [ Atom "busy"; kv "retry-after" (Printf.sprintf "%h" retry_after) ]
  | Draining -> List [ Atom "draining" ]
  | Bye -> List [ Atom "bye" ]
  | Error_msg m -> List [ Atom "error"; Atom m ]

let decode_response = function
  | List (Atom "point" :: items) -> (
    match
      ( field "descr" items,
        Option.bind (field "status" items) point_status_of_string,
        field "payload" items )
    with
    | Some descr, Some status, Some payload ->
      Ok (Point { descr; status; payload })
    | _ -> Error "point: missing field")
  | List (Atom "done" :: items) -> (
    match
      ( int_field "planned" items,
        int_field "reused" items,
        int_field "simulated" items,
        int_field "deduped" items,
        int_field "failed" items )
    with
    | Some planned, Some reused, Some simulated, Some deduped, Some failed ->
      Ok (Done { planned; reused; simulated; deduped; failed })
    | _ -> Error "done: missing field")
  | List (Atom "status" :: items) -> (
    match
      ( field "name" items,
        field "engine" items,
        int_field "records" items,
        int_field "shards" items,
        int_field "inflight" items )
    with
    | Some name, Some engine, Some records, Some shards, Some inflight ->
      Ok (Status_report { name; engine; records; shards; inflight })
    | _ -> Error "status: missing field")
  | List [ Atom "found"; Atom v ] -> Ok (Found v)
  | List [ Atom "not-found" ] -> Ok Not_found
  | List [ Atom "diff-report"; Atom text ] -> Ok (Diff_report text)
  | List (Atom "merged" :: items) -> (
    match
      ( int_field "added" items,
        int_field "replaced" items,
        int_field "kept" items )
    with
    | Some added, Some replaced, Some kept -> Ok (Merged { added; replaced; kept })
    | _ -> Error "merged: missing field")
  | List (Atom "counters" :: items) ->
    Ok
      (Counter_values
         (List.filter_map
            (function
              | List [ Atom n; Atom v ] ->
                Option.map (fun v -> (n, v)) (int_of_string_opt v)
              | _ -> None)
            items))
  | List (Atom "busy" :: items) -> (
    match Option.bind (field "retry-after" items) float_of_string_opt with
    | Some retry_after -> Ok (Busy { retry_after })
    | None -> Error "busy: missing retry-after")
  | List [ Atom "draining" ] -> Ok Draining
  | List [ Atom "bye" ] -> Ok Bye
  | List [ Atom "error"; Atom m ] -> Ok (Error_msg m)
  | x -> Error ("unknown response: " ^ Sexp.to_string x)

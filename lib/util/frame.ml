(* Length-prefixed frames: an 8-hex-digit payload length, then exactly
   that many payload bytes. Hex keeps the header fixed width and
   greppable in captures; the length prefix means no reader ever scans
   for a terminator inside the payload. *)

type error = [ `Eof | `Protocol of string | `Timeout ]

let header_len = 8

let rec write_all fd buf off len =
  if len > 0 then begin
    let n = Unix.write fd buf off len in
    write_all fd buf (off + n) (len - n)
  end

(* header and payload leave in one buffer, so a frame costs one write
   (and wakes the reader once) unless the pipe or socket is full *)
let write fd payload =
  let len = String.length payload in
  let buf = Bytes.create (header_len + len) in
  Bytes.blit_string (Printf.sprintf "%08x" len) 0 buf 0 header_len;
  Bytes.blit_string payload 0 buf header_len len;
  write_all fd buf 0 (header_len + len)

(* [deadline] is an absolute instant: every further byte must land
   before it, enforced with [Unix.select] ahead of each read *)
let read_exact ~deadline fd len =
  let buf = Bytes.create len in
  let rec ready d =
    let remaining = d -. Unix.gettimeofday () in
    remaining > 0.0
    &&
    match Unix.select [ fd ] [] [] remaining with
    | [], _, _ -> false
    | _ -> true
    | exception Unix.Unix_error (EINTR, _, _) -> ready d
  in
  let rec go off =
    if off >= len then `Ok (Bytes.to_string buf)
    else if not (Option.fold ~none:true ~some:ready deadline) then `Timeout
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> `Eof
      | n -> go (off + n)
      | exception Unix.Unix_error (EINTR, _, _) -> go off
  in
  go 0

let read_payload ~max ~deadline fd header =
  match int_of_string_opt ("0x" ^ header) with
  | None -> Error (`Protocol "bad frame header")
  | Some len when len < 0 || len > max -> Error (`Protocol "oversized frame")
  | Some len -> (
    match read_exact ~deadline fd len with
    | `Ok payload -> Ok payload
    | (`Eof | `Timeout) as e -> Error e)

let read ~max fd =
  match read_exact ~deadline:None fd header_len with
  | `Ok header -> read_payload ~max ~deadline:None fd header
  | (`Eof | `Timeout) as e -> Error e

(* The record file of a campaign store: incremental JSONL, one record
   per completed sweep point.

   Each record is appended and flushed as soon as the point finishes, so
   a killed process loses at most the points that were still in flight.
   Records are keyed by a stable digest of a canonical point descriptor;
   on open the file is replayed into a hash table, from which the store
   serves already-completed points instead of recomputing them.

   A truncated final line — the signature of a kill mid-write — is
   skipped on load rather than failing the resume. *)

module Tel = Telemetry

let c_records = Tel.Counter.make "util.checkpoint.records"
let c_loaded = Tel.Counter.make "util.checkpoint.loaded"
let c_skipped = Tel.Counter.make "util.checkpoint.malformed_lines"

(* records that were syntactically fine but semantically unusable: a
   line that raised during field extraction on load ([Store.memo] also
   counts a stored payload its decoder refused).  Distinct from
   [malformed_lines] (truncated/non-record lines): these looked like
   records and were dropped anyway, so resumable layers must recompute
   them. *)
let c_skipped_records = Tel.Counter.make "util.checkpoint.skipped_records"

type t = {
  lock : Mutex.t;
  table : (string, string) Hashtbl.t;
  extra : (string * string) list;
      (* constant fields stamped onto every record line, e.g. the engine
         identity of the binary that produced the results *)
  mutable oc : out_channel option;
}

let digest_key s = Digest.to_hex (Digest.string s)

(* minimal JSON-string unescape, inverse of Telemetry.json_escape *)
let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i < n then
      match s.[i] with
      | '\\' when i + 1 < n -> begin
        match s.[i + 1] with
        | '"' -> Buffer.add_char buf '"'; go (i + 2)
        | '\\' -> Buffer.add_char buf '\\'; go (i + 2)
        | 'n' -> Buffer.add_char buf '\n'; go (i + 2)
        | 'r' -> Buffer.add_char buf '\r'; go (i + 2)
        | 't' -> Buffer.add_char buf '\t'; go (i + 2)
        | 'u' when i + 5 < n ->
          (match int_of_string_opt ("0x" ^ String.sub s (i + 2) 4) with
          | Some code when code < 0x100 -> Buffer.add_char buf (Char.chr code)
          | Some _ | None -> ());
          go (i + 6)
        | c -> Buffer.add_char buf c; go (i + 2)
      end
      | c -> Buffer.add_char buf c; go (i + 1)
  in
  go 0;
  Buffer.contents buf

(* extract the value of a top-level string field from one record line;
   tolerant of anything else on the line *)
let field line name =
  let marker = Printf.sprintf "\"%s\":\"" name in
  let ln = String.length line and lm = String.length marker in
  let rec find i =
    if i + lm > ln then None
    else if String.sub line i lm = marker then begin
      (* scan to the closing unescaped quote *)
      let rec close j =
        if j >= ln then None
        else if line.[j] = '\\' then close (j + 2)
        else if line.[j] = '"' then Some j
        else close (j + 1)
      in
      match close (i + lm) with
      | Some j -> Some (unescape (String.sub line (i + lm) (j - i - lm)))
      | None -> None
    end
    else find (i + 1)
  in
  find 0

(* a record cut mid-append has no newline, so the record appended after
   it lands on the same line: keep the line from its last record start.
   String fields are JSON-escaped, so a brace followed by an unescaped
   quote only ever opens a record. The dropped prefix counts as a
   malformed line. *)
let last_record line =
  let rec back i =
    if i <= 0 then line
    else if line.[i] = '{' && line.[i + 1] = '"' then begin
      Tel.Counter.incr c_skipped;
      String.sub line i (String.length line - i)
    end
    else back (i - 1)
  in
  back (String.length line - 2)

(* Every record line of the file at [path], in order: [f line ~key
   ~value] for each usable one. One sick line must never strand the
   records behind it: a non-blank line without a key and a value is
   skipped and counted as malformed, and one whose extraction raises is
   skipped and counted as an unusable record. A missing file has no
   lines. *)
let iter_records path f =
  match open_in path with
  | exception Sys_error _ -> ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            let line = last_record (input_line ic) in
            match (field line "key", field line "value") with
            | Some key, Some value -> f line ~key ~value
            | _, _ -> if String.trim line <> "" then Tel.Counter.incr c_skipped
            | exception _ -> Tel.Counter.incr c_skipped_records
          done
        with End_of_file -> ())

let load_into table path =
  iter_records path (fun _ ~key ~value ->
      Hashtbl.replace table key value;
      Tel.Counter.incr c_loaded)

(* the raw view, without opening a handle ([Store.merge] and the engine
   tally need the stamped [extra] fields, which the replay table
   drops). Later records for a key follow earlier ones, so replaying
   [f] in order reproduces the last-wins semantics of {!load_into}. *)
let scan path f =
  iter_records path (fun line ~key ~value ->
      f ~descr:(field line "descr") ~engine:(field line "engine") ~key ~value)

let open_ ?(extra = []) path =
  let table = Hashtbl.create 256 in
  load_into table path;
  (* new records append behind the replayed ones *)
  let oc = open_out_gen [ Open_wronly; Open_creat; Open_append ] 0o644 path in
  { lock = Mutex.create (); table; extra; oc = Some oc }

let entries t = Hashtbl.length t.table

let find t key =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.table key)

let record t ~key ?(descr = "") ?(overwrite = false) ?extra value =
  Mutex.protect t.lock (fun () ->
      if overwrite || not (Hashtbl.mem t.table key) then begin
        Hashtbl.replace t.table key value;
        match t.oc with
        | None -> ()
        | Some oc ->
          let descr_field =
            if descr = "" then ""
            else Printf.sprintf "\"descr\":\"%s\"," (Tel.json_escape descr)
          in
          let extra_fields =
            String.concat ""
              (List.map
                 (fun (k, v) ->
                   Printf.sprintf "\"%s\":\"%s\"," (Tel.json_escape k)
                     (Tel.json_escape v))
                 (Option.value ~default:t.extra extra))
          in
          let line =
            Printf.sprintf "{%s%s\"key\":\"%s\",\"value\":\"%s\"}\n"
              descr_field extra_fields (Tel.json_escape key)
              (Tel.json_escape value)
          in
          if Chaos.armed () && Chaos.fire Chaos.Truncate_checkpoint then
            (* a kill mid-append: half a record, no trailing newline.
               The store stays correct — the in-memory table already
               holds the value, and on resume the malformed bytes are
               skipped and the point recomputed *)
            output_string oc (String.sub line 0 (String.length line / 2))
          else output_string oc line;
          (* flush per record: an interrupt loses at most in-flight points *)
          flush oc;
          Tel.Counter.incr c_records
      end)

let close t =
  Mutex.protect t.lock (fun () ->
      match t.oc with
      | None -> ()
      | Some oc ->
        t.oc <- None;
        close_out_noerr oc)

module P = Protocol
module Procpool = Dramstress_util.Procpool

(* ---- task codec: one s-expression, floats in %h so hints round-trip
   exactly ---- *)

let encode_task ~manifest_text ~index ~hint =
  Sexp.to_string
    (P.List
       [
         P.Atom "task";
         P.List [ P.Atom "m"; P.Atom manifest_text ];
         P.List [ P.Atom "i"; P.Atom (string_of_int index) ];
         P.List
           (P.Atom "hints"
           :: List.map (fun h -> P.Atom (Printf.sprintf "%h" h)) hint);
       ])

let decode_task s =
  match Sexp.of_string s with
  | Error msg -> Error msg
  | Ok (P.List (P.Atom "task" :: fields)) -> begin
    let text = ref None and index = ref None and hints = ref [] in
    let bad = ref None in
    List.iter
      (fun f ->
        match f with
        | P.List [ P.Atom "m"; P.Atom t ] -> text := Some t
        | P.List [ P.Atom "i"; P.Atom i ] -> begin
          match int_of_string_opt i with
          | Some i -> index := Some i
          | None -> bad := Some ("task: bad index " ^ i)
        end
        | P.List (P.Atom "hints" :: hs) ->
          List.iter
            (fun h ->
              match h with
              | P.Atom a -> begin
                match float_of_string_opt a with
                | Some v -> hints := v :: !hints
                | None -> bad := Some ("task: bad hint " ^ a)
              end
              | P.List _ -> bad := Some "task: bad hint")
            hs
        | _ -> bad := Some "task: unknown field")
      fields;
    match (!bad, !text, !index) with
    | Some msg, _, _ -> Error msg
    | None, Some t, Some i -> Ok (t, i, List.rev !hints)
    | None, None, _ -> Error "task: missing manifest"
    | None, _, None -> Error "task: missing index"
  end
  | Ok _ -> Error "task: not a (task ...) form"

(* ---- worker side (runs in the forked child) ---- *)

(* One manifest parse per submission, not per point: tasks of the same
   submission carry identical manifest text, so a single-slot cache
   keyed on that text absorbs all but the first parse. *)
let cache : (string * Manifest.t * Plan.point array) option ref = ref None

let manifest_of text =
  match !cache with
  | Some (t, m, pts) when String.equal t text -> (m, pts)
  | _ ->
    let m = Manifest.of_string ~source:"<sandbox-task>" text in
    let pts = Array.of_list (Plan.points m) in
    cache := Some (text, m, pts);
    (m, pts)

let contains s sub =
  let n = String.length s and k = String.length sub in
  k = 0
  ||
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

(* DRAMSTRESS_WORKER_KILL="substr:count" — chaos hook for supervision
   tests and the CI soak: suicide while attempt < count on any point
   whose description contains substr. Parsed per task so a test can
   set it on the daemon only. *)
let kill_spec () =
  match Sys.getenv_opt "DRAMSTRESS_WORKER_KILL" with
  | None | Some "" -> None
  | Some spec -> begin
    match String.rindex_opt spec ':' with
    | None -> Some (spec, max_int)
    | Some i ->
      let substr = String.sub spec 0 i in
      let count =
        match
          int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1))
        with
        | Some c -> c
        | None -> max_int
      in
      Some (substr, count)
  end

let worker ~attempt payload =
  match decode_task payload with
  | Error msg -> failwith ("sandbox: " ^ msg)
  | Ok (text, i, hint) ->
    let m, pts = manifest_of text in
    if i < 0 || i >= Array.length pts then
      failwith
        (Printf.sprintf "sandbox: point index %d out of range (plan has %d)" i
           (Array.length pts));
    let p = pts.(i) in
    (match kill_spec () with
    | Some (substr, count)
      when attempt < count && contains (Format.asprintf "%a" Plan.pp_point p) substr
      -> Unix.kill (Unix.getpid ()) Sys.sigkill
    | _ -> ());
    Plan.encode_result (Runner.simulate_point ~hint m p)

(* ---- parent side ---- *)

let executor pool ~manifest_text m =
  (* the runner hands us points, the wire wants indices: key the plan's
     deterministic order by point key once per submission *)
  let index_of = Hashtbl.create 64 in
  List.iteri
    (fun i (p : Plan.point) -> Hashtbl.replace index_of p.key i)
    (Plan.points m);
  fun ~hint (p : Plan.point) ->
    let index =
      match Hashtbl.find_opt index_of p.key with
      | Some i -> i
      | None -> failwith "sandbox: point not in plan"
    in
    match Procpool.exec pool (encode_task ~manifest_text ~index ~hint) with
    | Ok payload -> begin
      match Plan.decode_result payload with
      | Some r -> r
      | None -> failwith "sandbox: worker returned an undecodable result"
    end
    | Error (`Worker_error msg) -> failwith msg
    | Error (`Worker_lost n) -> raise (Procpool.Worker_lost n)

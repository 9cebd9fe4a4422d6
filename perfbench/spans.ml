(* Self time over a flat list of finished spans.

   The program's spans carry no parent links, so nesting is recovered
   from the intervals: on one domain, a span that starts inside another
   and ends inside it is its child. A span's self time is its duration
   minus the part of it that its direct children cover. *)

type t = { name : string; start : float; stop : float; domain : int }

let of_event (e : Dramstress_util.Telemetry.event) =
  { name = e.name; start = e.ts; stop = e.ts +. e.dur_s; domain = e.domain }

let dur s = s.stop -. s.start

(* [self_times spans] is, per span name, the summed self time in
   seconds, in order of first appearance. *)
let self_times spans =
  let by_start a b =
    match Float.compare a.start b.start with
    (* equal starts: the longer span is the parent *)
    | 0 -> Float.compare b.stop a.stop
    | c -> c
  in
  let totals = Hashtbl.create 16 and order = ref [] in
  let add name v =
    match Hashtbl.find_opt totals name with
    | Some r -> r := !r +. v
    | None ->
      order := name :: !order;
      Hashtbl.add totals name (ref v)
  in
  let domains = List.sort_uniq Int.compare (List.map (fun s -> s.domain) spans) in
  List.iter
    (fun d ->
      let mine = List.sort by_start (List.filter (fun s -> s.domain = d) spans) in
      (* stack of open spans, innermost first, each with the time its
         direct children cover *)
      let stack = ref [] in
      let close_until t =
        let rec go () =
          match !stack with
          | (s, covered) :: rest when s.stop <= t ->
            add s.name (Float.max 0.0 (dur s -. covered));
            stack := rest;
            go ()
          | _ -> ()
        in
        go ()
      in
      List.iter
        (fun s ->
          close_until s.start;
          (match !stack with
          | (parent, covered) :: rest ->
            let inside = Float.min s.stop parent.stop -. Float.max s.start parent.start in
            stack := (parent, covered +. Float.max 0.0 inside) :: rest
          | [] -> ());
          stack := (s, 0.0) :: !stack)
        mine;
      close_until Float.infinity)
    domains;
  List.rev_map (fun n -> (n, !(Hashtbl.find totals n))) !order

let self_time name spans =
  Option.value ~default:0.0 (List.assoc_opt name (self_times spans))

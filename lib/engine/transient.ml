module I = Dramstress_util.Interp

type result = {
  times : float array;
  probe_names : string array;
  probe_values : float array array;
  final_v : float array;
  probe_interps : (string, I.t) Hashtbl.t;
}

exception
  Step_failed of {
    seg_start : float;
    seg_end : float;
    t : float;
    dt : float;
    retries : int;
    iterations : int;
    worst : float;
  }

let () =
  Printexc.register_printer (function
    | Step_failed { seg_start; seg_end; t; dt; retries; iterations; worst } ->
      Some
        (Printf.sprintf
           "Transient.Step_failed { segment %.4g..%.4g s; t=%.4g s; dt=%.4g \
            s; %d halving retries exhausted; %d Newton iterations; worst \
            update %.3g V }"
           seg_start seg_end t dt retries iterations worst)
    | _ -> None)

let probe result name =
  match Hashtbl.find_opt result.probe_interps name with
  | Some interp -> interp
  | None -> raise Not_found

let value_at result name t = I.eval (probe result name) t

(* the sampled times strictly increase, so the interpolant can take the
   arrays directly without the sort/dedup pass of [I.of_points] *)
let make_interps times probe_names probe_values =
  let tbl = Hashtbl.create (Array.length probe_names) in
  Array.iteri
    (fun i name ->
      if not (Hashtbl.mem tbl name) then
        Hashtbl.add tbl name (I.of_sorted_arrays times probe_values.(i)))
    probe_names;
  tbl

module O = Dramstress_dram.Ops
module S = Dramstress_dram.Stress
module Sc = Dramstress_dram.Sim_config
module D = Dramstress_defect.Defect
module I = Dramstress_util.Interp
module G = Dramstress_util.Grid
module Out = Dramstress_util.Outcome
module St = Dramstress_util.Store

type point = { r : float; vc : float }

type curve = { label : string; points : point list }

type vsa_point = { r_sa : float; vsa : vsa_value }
and vsa_value = Vsa of float | Reads_all_1 | Reads_all_0

type t = {
  op : O.op;
  curves : curve list;
  vsa_curve : vsa_point list;
  vmp : float;
  rops : float list;
  failures : float Out.failure list;
  stress : S.t;
}

(* the resistance axis of a plane sweep without an explicit [rops] *)
let default_rops = G.logspace 1e3 1e6 12

(* the read plane seeds its trajectories this far either side of V_sa,
   V (Figure 2) *)
let read_offset = 0.2

let vsa_substitute stress = function
  | Vsa v -> v
  | Reads_all_1 -> 0.0
  | Reads_all_0 -> stress.S.vdd

(* the physical storage level a logical write targets *)
let physical_target placement op =
  let logical =
    match op with O.W0 -> 0 | O.W1 -> 1 | O.R | O.Pause _ | O.Ham _ -> 1
  in
  match placement with D.True_bl -> logical | D.Comp_bl -> 1 - logical

(* ------------------------------------------------------------------ *)
(* Checkpoint payload codecs: [%h] floats so a resumed sweep rebuilds   *)
(* byte-identical planes                                                *)
(* ------------------------------------------------------------------ *)

let encode_vsa = function
  | Vsa v -> Printf.sprintf "v%h" v
  | Reads_all_1 -> "1"
  | Reads_all_0 -> "0"

let decode_vsa = function
  | "1" -> Some Reads_all_1
  | "0" -> Some Reads_all_0
  | s when String.length s > 1 && s.[0] = 'v' ->
    Option.map
      (fun v -> Vsa v)
      (float_of_string_opt (String.sub s 1 (String.length s - 1)))
  | _ -> None

let encode_floats vs = String.concat "," (List.map (Printf.sprintf "%h") vs)

let decode_floats s =
  let parts = if s = "" then [] else String.split_on_char ',' s in
  let decoded = List.map float_of_string_opt parts in
  if List.for_all Option.is_some decoded then
    Some (List.filter_map Fun.id decoded)
  else None

let encode_write_point (vcs, v) = encode_floats vcs ^ "|" ^ encode_vsa v

let decode_write_point s =
  match String.split_on_char '|' s with
  | [ vcs; v ] -> begin
    match (decode_floats vcs, decode_vsa v) with
    | Some vcs, Some v -> Some (vcs, v)
    | _, _ -> None
  end
  | _ -> None

let encode_read_point (v, below, above) =
  encode_vsa v ^ "|" ^ encode_floats below ^ "|" ^ encode_floats above

let decode_read_point s =
  match String.split_on_char '|' s with
  | [ v; below; above ] -> begin
    match (decode_vsa v, decode_floats below, decode_floats above) with
    | Some v, Some below, Some above -> Some (v, below, above)
    | _, _, _ -> None
  end
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Batched evaluation: each round of a plane is one [O.run_batch]      *)
(* ------------------------------------------------------------------ *)

(* The guarded V_sa bisection on the initial storage voltage, for
   every lane at once ([None] = the defect-free column): probe both ends
   of [0, vdd]; equal verdicts saturate, otherwise bisect to [tol] (the
   iteration cap of {!Dramstress_util.Bisect.threshold}). Each predicate
   round evaluates all still-active lanes in one [O.run_batch], and all
   Crossing lanes share the bracket, so they stay in lockstep and the
   whole bisection costs [log2 (vdd / tol)] rounds for the entire
   batch. A lane whose simulation fails carries its exception out as
   [Error] without disturbing its batch mates. *)
let vsa_many ~config ~stress defects =
  let n = Array.length defects in
  let vdd = stress.S.vdd in
  let tol = 5e-3 and max_iter = 200 in
  let out = Array.make n None in
  let pred_round pts =
    List.map2
      (fun (i, _) r ->
        ( i,
          Result.map
            (fun outcome ->
              let logical =
                match O.sensed_bits outcome with
                | [ b ] -> b
                | _ -> assert false
              in
              let physical =
                match defects.(i) with
                | Some { D.placement = D.Comp_bl; _ } -> 1 - logical
                | Some { D.placement = D.True_bl; _ } | None -> logical
              in
              physical = 0)
            r ))
      pts
      (O.run_batch ~config ~stress
         ~lanes:
           (List.map (fun (i, vc) -> { O.defect = defects.(i); vc_init = vc }) pts)
         [ O.R ])
  in
  let plo = Array.make n false in
  List.iter
    (fun (i, r) ->
      match r with
      | Ok b -> plo.(i) <- b
      | Error e -> out.(i) <- Some (Error e))
    (pred_round (List.init n (fun i -> (i, 0.0))));
  let live =
    List.filter (fun i -> Option.is_none out.(i)) (List.init n Fun.id)
  in
  let crossing = ref [] in
  List.iter
    (fun (i, r) ->
      match r with
      | Error e -> out.(i) <- Some (Error e)
      | Ok phi ->
        if Bool.equal plo.(i) phi then
          out.(i) <- Some (Ok (if phi then Reads_all_0 else Reads_all_1))
        else crossing := i :: !crossing)
    (pred_round (List.map (fun i -> (i, vdd)) live));
  let lo = Array.make n 0.0 and hi = Array.make n vdd in
  let iter = Array.make n 0 in
  let active = ref (List.rev !crossing) in
  while !active <> [] do
    let finished, continuing =
      List.partition
        (fun i -> Float.abs (hi.(i) -. lo.(i)) <= tol || iter.(i) >= max_iter)
        !active
    in
    List.iter
      (fun i -> out.(i) <- Some (Ok (Vsa (0.5 *. (lo.(i) +. hi.(i))))))
      finished;
    let next = ref [] in
    List.iter
      (fun (i, r) ->
        match r with
        | Error e -> out.(i) <- Some (Error e)
        | Ok pm ->
          let m = 0.5 *. (lo.(i) +. hi.(i)) in
          if Bool.equal pm plo.(i) then lo.(i) <- m else hi.(i) <- m;
          iter.(i) <- iter.(i) + 1;
          next := i :: !next)
      (if continuing = [] then []
       else
         pred_round
           (List.map (fun i -> (i, 0.5 *. (lo.(i) +. hi.(i)))) continuing));
    active := List.rev !next
  done;
  Array.map Option.get out

let vsa_one ~config ~stress defect =
  match vsa_many ~config ~stress [| defect |] with
  | [| Ok v |] -> v
  | [| Error e |] -> raise e
  | _ -> assert false

let vmp ?(config = Sc.default) ~stress () =
  match vsa_one ~config ~stress None with
  | Vsa v -> v
  | Reads_all_0 -> 0.0
  | Reads_all_1 -> stress.S.vdd

let vsa ?(config = Sc.default) ~stress ~defect () =
  vsa_one ~config ~stress (Some defect)

(* shared scaffolding of the planes: store replay into [slots],
   per-point defect construction with [D.v] failures captured as point
   failures, and the final assembly into [Outcome.t] slots in input
   order. Each point's store record is independent of the batch width,
   so a sweep resumes from its store at any width bit-identically. *)
let plane_slots ~store ~decode ~kind ~placement ~keys rops_arr =
  let n = Array.length rops_arr in
  let slots = Array.make n None in
  (match store with
  | None -> ()
  | Some st ->
    Array.iteri
      (fun i key ->
        match Option.bind (St.find st ~key) decode with
        | Some v -> slots.(i) <- Some (Ok v)
        | None -> ())
      keys);
  let defects = Array.make n None in
  Array.iteri
    (fun i r ->
      if Option.is_none slots.(i) then
        match D.v kind placement r with
        | d -> defects.(i) <- Some d
        | exception e -> slots.(i) <- Some (Error e))
    rops_arr;
  (slots, defects)

let live_indices slots =
  List.filter
    (fun i -> Option.is_none slots.(i))
    (List.init (Array.length slots) Fun.id)

(* one round of [n_ops] [op]s over the points still live in [slots],
   point [i] from [vc_init i]: each point's cell voltage after every op,
   or its error in [slots] *)
let trajectories ~config ~stress ~slots ~defects ~vc_init ~n_ops op =
  let vcs = Array.make (Array.length slots) [] in
  let live = live_indices slots in
  List.iter2
    (fun i r ->
      match r with
      | Ok outcome ->
        vcs.(i) <- List.map (fun res -> res.O.vc_end) outcome.O.results
      | Error e -> slots.(i) <- Some (Error e))
    live
    (O.run_batch ~config ~stress
       ~lanes:
         (List.map (fun i -> { O.defect = defects.(i); vc_init = vc_init i }) live)
       (List.init n_ops (fun _ -> op)));
  vcs

let commit_point ~store ~encode ~descr ~keys ~slots i payload =
  Option.iter
    (fun st -> St.put st ~key:keys.(i) ~descr:(descr i) (encode payload))
    store;
  slots.(i) <- Some (Ok payload)

let assemble_outcomes ~slots rops_arr =
  Array.to_list
    (Array.mapi
       (fun i r ->
         match slots.(i) with
         | Some (Ok payload) -> Out.Ok (r, payload)
         | Some (Error e) ->
           Out.Failed { Out.point = r; error = e; retries = O.retries_of e }
         | None -> assert false)
       rops_arr)

(* ------------------------------------------------------------------ *)
(* Plane sweeps                                                        *)
(* ------------------------------------------------------------------ *)

let curves_of ~n_ops ~label points =
  List.init n_ops (fun k ->
      {
        label = label k;
        points = List.map (fun (r, vcs) -> { r; vc = List.nth vcs k }) points;
      })

(* write plane: store-missing resistances become lanes — one round
   of [n_ops] writes, then the lockstep Vsa bisection *)
let write_plane ?(config = Sc.default) ?store ?(n_ops = 4)
    ?(rops = default_rops) ~stress ~kind ~placement ~op () =
  (match op with
  | O.W0 | O.W1 -> ()
  | O.R | O.Pause _ | O.Ham _ ->
    invalid_arg "Plane.write_plane: op must be a write");
  if n_ops < 1 then invalid_arg "Plane.write_plane: n_ops < 1";
  let vc_init =
    if physical_target placement op = 0 then stress.S.vdd else 0.0
  in
  let base_key =
    Sc.key config "plane.write" ~stress ~kind ~placement
      [ Format.asprintf "op=%a" O.pp_op op; Printf.sprintf "n_ops=%d" n_ops ]
  in
  let rops_arr = Array.of_list rops in
  let keys = Array.map (fun r -> Printf.sprintf "%s|r=%h" base_key r) rops_arr in
  let descr i = Printf.sprintf "write plane r=%g" rops_arr.(i) in
  let slots, defects =
    plane_slots ~store ~decode:decode_write_point ~kind ~placement ~keys
      rops_arr
  in
  let vcs_arr =
    trajectories ~config ~stress ~slots ~defects ~vc_init:(fun _ -> vc_init)
      ~n_ops op
  in
  (* sense-amp thresholds of the surviving points *)
  let live = live_indices slots in
  let vsas =
    vsa_many ~config ~stress
      (Array.of_list (List.map (fun i -> defects.(i)) live))
  in
  List.iteri
    (fun k i ->
      match vsas.(k) with
      | Ok v ->
        commit_point ~store ~encode:encode_write_point ~descr ~keys
          ~slots i (vcs_arr.(i), v)
      | Error e -> slots.(i) <- Some (Error e))
    live;
  let points, failures = Out.partition (assemble_outcomes ~slots rops_arr) in
  {
    op;
    curves =
      curves_of ~n_ops
        ~label:(fun k -> Format.asprintf "(%d) %a" (k + 1) O.pp_op op)
        (List.map (fun (r, (vcs, _)) -> (r, vcs)) points);
    vsa_curve = List.map (fun (r, (_, v)) -> { r_sa = r; vsa = v }) points;
    (* the shared defect-free midpoint is a plane prerequisite, not a
       sweep point: the per-point deadline does not apply to it *)
    vmp = vmp ~config:{ config with Sc.deadline = None } ~stress ();
    rops = List.map fst points;
    failures;
    stress;
  }

(* read plane: the lockstep Vsa bisection first, then two rounds of
   [n_ops] reads seeded just below / above each lane's own threshold *)
let read_plane ?(config = Sc.default) ?store ?(n_ops = 3)
    ?(rops = default_rops) ~stress ~kind ~placement () =
  if n_ops < 1 then invalid_arg "Plane.read_plane: n_ops < 1";
  let base_key =
    Sc.key config "plane.read" ~stress ~kind ~placement
      [ Printf.sprintf "n_ops=%d" n_ops;
        Printf.sprintf "offset=%h" read_offset ]
  in
  let rops_arr = Array.of_list rops in
  let n = Array.length rops_arr in
  let keys = Array.map (fun r -> Printf.sprintf "%s|r=%h" base_key r) rops_arr in
  let descr i = Printf.sprintf "read plane r=%g" rops_arr.(i) in
  let slots, defects =
    plane_slots ~store ~decode:decode_read_point ~kind ~placement ~keys
      rops_arr
  in
  let vsas = Array.make n Reads_all_1 in
  let live = live_indices slots in
  let res =
    vsa_many ~config ~stress
      (Array.of_list (List.map (fun i -> defects.(i)) live))
  in
  List.iteri
    (fun k i ->
      match res.(k) with
      | Ok v -> vsas.(i) <- v
      | Error e -> slots.(i) <- Some (Error e))
    live;
  let trajectory_round seed_of =
    trajectories ~config ~stress ~slots ~defects ~n_ops O.R
      ~vc_init:(fun i ->
        Float.max 0.0
          (Float.min stress.S.vdd (seed_of (vsa_substitute stress vsas.(i)))))
  in
  let below = trajectory_round (fun vsa -> vsa -. read_offset) in
  let above = trajectory_round (fun vsa -> vsa +. read_offset) in
  List.iter
    (fun i ->
      commit_point ~store ~encode:encode_read_point ~descr ~keys ~slots i
        (vsas.(i), below.(i), above.(i)))
    (live_indices slots);
  let points, failures = Out.partition (assemble_outcomes ~slots rops_arr) in
  let below = List.map (fun (r, (_, b, _)) -> (r, b)) points in
  let above = List.map (fun (r, (_, _, a)) -> (r, a)) points in
  let label tag k = Printf.sprintf "(%d) r %s" (k + 1) tag in
  {
    op = O.R;
    curves =
      curves_of ~n_ops ~label:(label "from below Vsa") below
      @ curves_of ~n_ops ~label:(label "from above Vsa") above;
    vsa_curve = List.map (fun (r, (v, _, _)) -> { r_sa = r; vsa = v }) points;
    vmp = vmp ~config:{ config with Sc.deadline = None } ~stress ();
    rops = List.map fst points;
    failures;
    stress;
  }

let curve_interp c =
  I.of_points (List.map (fun { r; vc } -> (r, vc)) c.points)

let vsa_interp plane =
  I.of_points
    (List.map
       (fun { r_sa; vsa = v } -> (r_sa, vsa_substitute plane.stress v))
       plane.vsa_curve)

let br_geometric plane =
  match plane.curves with
  (* a plane whose every point failed has empty curves: no crossing *)
  | _ :: second :: _ when second.points <> [] && plane.vsa_curve <> [] ->
    begin
    let w = curve_interp second in
    let s = vsa_interp plane in
    (* intersect on a log axis to respect the resistance sweep *)
    let to_log c =
      I.of_points (List.map (fun (x, y) -> (log10 x, y)) (I.points c))
    in
    match I.intersections (to_log w) (to_log s) with
    | x :: _ -> Some (10.0 ** x)
    | [] -> None
  end
  | _ -> None

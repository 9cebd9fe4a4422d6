module D = Dramstress_defect.Defect
module Sc = Dramstress_dram.Sim_config
module O = Dramstress_dram.Ops
module Border = Dramstress_core.Border
module Sc_eval = Dramstress_core.Sc_eval
module M = Dramstress_march.March
module Store = Dramstress_util.Store
module Outcome = Dramstress_util.Outcome
module Par = Dramstress_util.Par
module Chaos = Dramstress_util.Chaos
module Tel = Dramstress_util.Telemetry

let c_planned = Tel.Counter.make "campaign.points_planned"
let c_reused = Tel.Counter.make "campaign.points_reused"
let c_simulated = Tel.Counter.make "campaign.points_simulated"
let c_failed = Tel.Counter.make "campaign.points_failed"
let c_deduped = Tel.Counter.make "campaign.points_deduped"

type state = [ `Done of Plan.result | `Failed of string | `Missing ]

let state ~store (p : Plan.point) =
  match Store.find store ~key:p.Plan.key with
  | Some payload -> begin
    match Plan.decode_result payload with
    | Some r -> `Done r
    | None -> `Missing (* foreign payload: treat as absent, recompute *)
  end
  | None -> begin
    match Store.find store ~key:(Plan.fail_key p) with
    | Some msg -> `Failed msg
    | None -> `Missing
  end

let states ~store m =
  List.map (fun p -> (p, state ~store p)) (Plan.points m)

type summary = {
  planned : int;
  reused : int;
  simulated : int;
  deduped : int;
  results : (Plan.point * Plan.result) list;
  failures : Plan.point Outcome.failure list;
}

(* in-flight deduplication hook for multi-client execution: before
   simulating a missing point the runner [claim]s its descriptor; the
   gate answers [`Run] (we own it — [publish] the outcome when done,
   success or failure, or every waiter hangs) or [`Wait] (someone else
   owns it — the thunk blocks until their published outcome) *)
type gate = {
  claim : string -> [ `Run | `Wait of unit -> (Plan.result, string) result ];
  publish : string -> (Plan.result, string) result -> unit;
}

type event =
  [ `Reused of Plan.result
  | `Simulated of Plan.result
  | `Deduped of Plan.result
  | `Failed of string ]

(* warm-start seeds for the next point of a chain: the border estimates
   of a finished result. They only ADD probes to an adaptive scan, so a
   wrong hint costs a couple of extra samples, never correctness. *)
let hints_of (r : Plan.result) =
  match r.Plan.br with
  | Border.Br v -> [ v ]
  | Border.Faulty_band { lo; hi } -> [ lo; hi ]
  | Border.Bands bands ->
    List.concat_map
      (fun b -> [ Border.edge_mid b.Border.b_lo; Border.edge_mid b.Border.b_hi ])
      bands
  | Border.Always_faulty | Border.Never_faulty | Border.Unsampled -> []

(* adjacent stress settings of the same (defect, placement, detection)
   cell form one warm-start chain: the plan orders detections innermost
   and stresses next, so grouping by everything BUT the stress keeps
   each chain in manifest stress order *)
let chain_key (p : Plan.point) =
  String.concat "|"
    [ p.Plan.defect.D.id; D.placement_name p.Plan.placement;
      Manifest.detection_label p.Plan.detection ]

let chains_of classified =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((p, _) as item) ->
      let k = chain_key p in
      match Hashtbl.find_opt tbl k with
      | Some items -> items := item :: !items
      | None ->
        order := k :: !order;
        Hashtbl.add tbl k (ref [ item ]))
    classified;
  List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order

(* The pure simulation of one point — no store access beyond the memos
   of the optional [store], so it can run behind a process boundary
   (the sandbox worker) exactly as it runs in a worker domain. *)
let simulate_point ?store ?(hint = []) (m : Manifest.t) (p : Plan.point) =
  match p.Plan.detection with
  | Manifest.Best | Manifest.Best_no_pause ->
    let allow_pause = p.Plan.detection = Manifest.Best in
    let detection, br =
      Sc_eval.best_detection ~config:m.Manifest.config ?store
        ~window:m.Manifest.window ~hint ~allow_pause ~stress:p.Plan.stress
        ~kind:p.Plan.defect.D.kind ~placement:p.Plan.placement ()
    in
    { Plan.detection; br }
  | Manifest.Seq _ | Manifest.March _ ->
    let d =
      match p.Plan.detection with
      | Manifest.Seq d -> d
      | Manifest.March t -> M.to_detection t
      | _ -> assert false
    in
    let br =
      Border.search ~config:m.Manifest.config ?store
        ~window:m.Manifest.window ~hint ~stress:p.Plan.stress
        ~kind:p.Plan.defect.D.kind ~placement:p.Plan.placement d
    in
    { Plan.detection = d; br }

let run ?jobs ?gate ?on_point ?executor ~store
    (m : Manifest.t) =
  let points = Plan.points m in
  let planned = List.length points in
  Tel.Counter.add c_planned planned;
  (* split against the store: successes are never recomputed — the
     passive half of the active planner (a point whose BR the store
     already bounds is skipped before any scheduling happens) *)
  let classified =
    List.map
      (fun p ->
        match state ~store p with
        | `Done r -> (p, Some r)
        | `Failed _ | `Missing -> (p, None))
      points
  in
  let reused = List.filter_map (fun (p, r) -> Option.map (fun r -> (p, r)) r) classified in
  Tel.Counter.add c_reused (List.length reused);
  let jobs =
    match jobs with
    | Some j -> j
    | None -> Sc.resolve_jobs m.Manifest.config
  in
  (* the store memoizes the border searches INSIDE each point, so
     killing a run mid-point loses nothing but the classification step;
     the point record itself is written from the worker the moment its
     result exists *)
  let notify p ev = match on_point with Some f -> f p ev | None -> () in
  let simulate ~hint (p : Plan.point) =
    match executor with
    | Some ex -> ex ~hint p
    | None -> simulate_point ~store ~hint m p
  in
  (* the active half of the planner: each chain walks its stress
     settings in manifest order, seeding every search with the previous
     result's border estimates; chains are independent and fan out over
     domains. Per-point fault isolation matches
     [Par.parallel_map_outcomes]: one failed point becomes a [Failed]
     outcome (chaos faults included), resets the hint — a failed point
     has no border to seed from — and the chain carries on. *)
  let chain_outcomes items =
    let _, outcomes =
      List.fold_left
        (fun (hint, acc) ((p : Plan.point), stored) ->
          match stored with
          | Some r ->
            notify p (`Reused r);
            (hints_of r, acc)
          | None -> begin
            let key = p.Plan.key in
            match
              match gate with None -> `Run | Some g -> g.claim key
            with
            | `Wait wait -> begin
              (* another submission owns this point: block for its
                 outcome instead of simulating it a second time *)
              match wait () with
              | Ok r ->
                notify p (`Deduped r);
                (hints_of r, Outcome.Ok (p, r, `Dedup) :: acc)
              | Error msg ->
                notify p (`Failed msg);
                ( [],
                  Outcome.Failed
                    { Outcome.point = p; error = Failure msg; retries = 0 }
                  :: acc )
            end
            | `Run -> begin
              let publish res =
                match gate with Some g -> g.publish key res | None -> ()
              in
              (* gated runs re-check the store before simulating: a
                 concurrent submission may have landed the point after
                 our classification pass *)
              let late =
                match gate with
                | None -> None
                | Some _ -> Option.bind (Store.find store ~key) Plan.decode_result
              in
              match late with
              | Some r ->
                publish (Ok r);
                notify p (`Deduped r);
                (hints_of r, Outcome.Ok (p, r, `Dedup) :: acc)
              | None -> begin
                match
                  if Chaos.armed () && Chaos.fire Chaos.Fail_worker_task then
                    raise
                      (Chaos.Injected_fault { fault = Chaos.Fail_worker_task });
                  simulate ~hint p
                with
                | r ->
                  let descr = Format.asprintf "%a" Plan.pp_point p in
                  Store.put store ~key ~descr (Plan.encode_result r);
                  (* publish only after the record is durable: a waiter
                     released here must find the point on its next
                     classification pass too *)
                  publish (Ok r);
                  notify p (`Simulated r);
                  (hints_of r, Outcome.Ok (p, r, `Fresh) :: acc)
                | exception e ->
                  publish (Error (Printexc.to_string e));
                  notify p (`Failed (Printexc.to_string e));
                  ( [],
                    Outcome.Failed
                      { Outcome.point = p; error = e; retries = O.retries_of e }
                    :: acc )
              end
            end
          end)
        ([], []) items
    in
    List.rev outcomes
  in
  (* A chain whose every point is stored only replays its records, so
     it is walked here, on the caller's thread: a warm resubmission
     starts no domain or thread at all. Only the chains with a missing
     point fan out — domains for a local run; systhreads under an
     executor, whose process must stay fork-capable (the sandboxed
     service daemon) — exec'ing a point on a pool worker blocks outside
     the runtime anyway, so threads lose nothing there. Hints flow
     within a chain only, so splitting the chains moves no result. *)
  let stored, to_simulate =
    List.partition
      (List.for_all (fun (_, r) -> Option.is_some r))
      (chains_of classified)
  in
  List.iter (fun c -> ignore (chain_outcomes c)) stored;
  let fan =
    match executor with
    | None -> Par.parallel_map
    | Some _ -> Par.concurrent_map
  in
  let outcomes =
    match to_simulate with
    | [] -> []
    | chains -> List.concat (fan ~jobs chain_outcomes chains)
  in
  let succeeded, failures = Outcome.partition outcomes in
  let fresh =
    List.filter_map
      (fun (p, r, o) -> if o = `Fresh then Some (p, r) else None)
      succeeded
  in
  let deduped =
    List.filter_map
      (fun (p, r, o) -> if o = `Dedup then Some (p, r) else None)
      succeeded
  in
  Tel.Counter.add c_simulated (List.length fresh);
  Tel.Counter.add c_deduped (List.length deduped);
  Tel.Counter.add c_failed (List.length failures);
  (* failure records: separate namespace, last attempt wins, so status
     reports the current story and the next run retries them *)
  List.iter
    (fun (f : Plan.point Outcome.failure) ->
      let descr = Format.asprintf "FAILED %a" Plan.pp_point f.Outcome.point in
      Store.put store ~key:(Plan.fail_key f.Outcome.point) ~descr
        ~overwrite:true
        (Printexc.to_string f.Outcome.error))
    failures;
  (* reassemble in plan order *)
  let by_point = Hashtbl.create 64 in
  List.iter
    (fun ((p : Plan.point), r) -> Hashtbl.replace by_point p.key r)
    (reused @ fresh @ deduped);
  let results =
    List.filter_map
      (fun (p : Plan.point) ->
        Option.map (fun r -> (p, r)) (Hashtbl.find_opt by_point p.key))
      points
  in
  {
    planned;
    reused = List.length reused;
    simulated = List.length fresh;
    deduped = List.length deduped;
    results;
    failures;
  }

let pp_summary ppf s =
  Format.fprintf ppf
    "@[<v2>campaign: %d point(s) planned, %d reused, %d simulated, %d \
     deduped, %d failed@ %a@]"
    s.planned s.reused s.simulated s.deduped
    (List.length s.failures)
    (Format.pp_print_list (Outcome.pp_failure Plan.pp_point))
    s.failures

(* Seed -> manifest generator. The benchmark's workloads differ only in
   the manifest text they hand the program; everything a workload
   measures is decided here, from the seed alone. Seeded values move
   within narrow bands so that every seed costs about the same and no
   point fails: the seed varies the physics, not the size of the job. *)

type workload = Table1_grid | Retention_deadline | Service_sandboxed

let all = [ Table1_grid; Retention_deadline; Service_sandboxed ]

let name = function
  | Table1_grid -> "table1-grid"
  | Retention_deadline -> "retention-deadline"
  | Service_sandboxed -> "service-sandboxed"

let of_name s = List.find_opt (fun w -> name w = s) all

(* Parallelism pinned inside every manifest. The manifest grammar has
   no lanes field, so the ensemble width is pinned by refusing
   DRAMSTRESS_LANES and recording the resolved value instead. *)
let jobs = 1

(* The deadline never trips (a point takes well under a second); its
   only effect is to route every simulation onto the scalar transient
   path. *)
let deadline_s = 600.0

let rng w seed =
  Random.State.make [| seed; Hashtbl.hash (name w) |]

(* uniform in [lo, hi], rounded to [digits] decimals so the manifest
   text is short and prints the same on every platform *)
let uniform st ~lo ~hi ~digits =
  let x = lo +. Random.State.float st (hi -. lo) in
  let k = 10.0 ** float_of_int digits in
  Float.round (x *. k) /. k

(* The paper's Table 1 shape: the defect catalog at the Fig-6 stressed
   corner and at a seeded corner near nominal, scanned by the grid
   oracle. Each defect sits on the bit line where the detection sees it. *)
let table1_grid seed =
  let st = rng Table1_grid seed in
  let corner i =
    Printf.sprintf "  (stress corner-%d (vdd %.2f) (temp %.0f))" i
      (uniform st ~lo:2.3 ~hi:2.5 ~digits:2)
      (uniform st ~lo:27.0 ~hi:60.0 ~digits:0)
  in
  String.concat "\n"
    [
      Printf.sprintf "(campaign\n  (name table1-grid-%d)" seed;
      "  (defects (O1 true) (Sg comp) (Sv true) (B1 true) (B2 true))";
      "  (stress stressed (tcyc 55e-9) (temp 87) (vdd 2.1))";
      corner 1;
      {|  (detections (seq "w1 w1 w0 r0"))|};
      Printf.sprintf "  (sim (jobs %d))" jobs;
      "  (border (r-min 1e3) (r-max 1e11) (grid-points 13) (rel-tol 0.01)\n\
      \          (strategy grid)))";
    ]

(* Long retention holds on the scalar transient path: a seeded wait x
   pattern sweep walked by adaptive warm-start chains. *)
let retention_deadline seed =
  let st = rng Retention_deadline seed in
  let waits =
    List.map
      (fun (lo, hi) -> Printf.sprintf "%.3g" (uniform st ~lo ~hi ~digits:3))
      [ (0.02, 0.04); (2.0, 4.0) ]
  in
  String.concat "\n"
    [
      Printf.sprintf "(campaign\n  (name retention-deadline-%d)" seed;
      "  (defects (O1 true) (Sg true))";
      Printf.sprintf "  (sweep (wait %s) (pattern all1 checkerboard))"
        (String.concat " " waits);
      {|  (detections (seq "w1 w0 r0"))|};
      Printf.sprintf "  (sim (jobs %d) (deadline %g))" jobs deadline_s;
      "  (border (r-min 1e3) (r-max 1e11) (grid-points 13) (rel-tol 0.01)\n\
      \          (strategy adaptive)))";
    ]

(* Cold submissions per service cycle. Each is a distinct manifest, so
   that every one is simulated, and the cycle's cold rate is read from
   several of them rather than from one short submission. *)
let service_colds = 4

(* The service's cold submissions: a smaller Table-1 slice each, so that
   worker IPC and store writes are a visible share of the wall time.
   Corner k of the cycle draws its temperature from a band of its own,
   so no two submissions share a point and every seed covers the same
   temperature range. *)
let service_sandboxed seed i =
  let st = Random.State.make [| seed; Hashtbl.hash (name Service_sandboxed); i |] in
  let corner k =
    Printf.sprintf "  (stress corner-%d (vdd %.2f) (temp %.0f))" k
      (uniform st ~lo:2.3 ~hi:2.5 ~digits:2)
      (uniform st ~lo:(27.0 +. (5.0 *. float_of_int k))
         ~hi:(31.0 +. (5.0 *. float_of_int k)) ~digits:0)
  in
  String.concat "\n"
    [
      Printf.sprintf "(campaign\n  (name service-sandboxed-%d-%d)" seed i;
      "  (defects O1 Sv B1)";
      corner (2 * i);
      corner ((2 * i) + 1);
      {|  (detections (seq "w1 w1 w0 r0"))|};
      Printf.sprintf "  (sim (jobs %d))" jobs;
      "  (border (r-min 1e3) (r-max 1e11) (grid-points 13) (rel-tol 0.01)\n\
      \          (strategy grid)))";
    ]

(* [manifests w ~seed] is the text of every manifest a cycle of [w]
   submits cold, in order: one for the in-process workloads,
   [service_colds] for the service. *)
let manifests w ~seed =
  match w with
  | Table1_grid -> [ table1_grid seed ]
  | Retention_deadline -> [ retention_deadline seed ]
  | Service_sandboxed -> List.init service_colds (service_sandboxed seed)

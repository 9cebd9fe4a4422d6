(* Telemetry subsystem tests: probe semantics when disabled, counter
   integrity under parallel fan-out, sink behaviour, and agreement
   between the telemetry counters and the Ops cache statistics. Also
   pins the Celsius -> Kelvin unit boundary (Stress.temp_kelvin). *)

module Tel = Dramstress_util.Telemetry
module Par = Dramstress_util.Par
module S = Dramstress_dram.Stress
module O = Dramstress_dram.Ops
module D = Dramstress_defect.Defect

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Temperature unit boundary                                          *)
(* ------------------------------------------------------------------ *)

let test_temp_kelvin () =
  (* the paper's nominal SC is 27 degC; the solver works in Kelvin *)
  check_float "nominal 27 degC is 300.15 K" 300.15 (S.temp_kelvin S.nominal);
  check_float "explicit 27 degC" 300.15
    (S.temp_kelvin (S.with_temp_c S.nominal 27.0));
  check_float "0 degC is 273.15 K" 273.15
    (S.temp_kelvin (S.with_temp_c S.nominal 0.0));
  check_float "solver default matches the nominal SC" 300.15
    Dramstress_engine.Options.default.temp

(* ------------------------------------------------------------------ *)
(* Job-count resolution                                               *)
(* ------------------------------------------------------------------ *)

let test_resolve_jobs () =
  let with_env v f =
    let old = Sys.getenv_opt "DRAMSTRESS_JOBS" in
    Unix.putenv "DRAMSTRESS_JOBS" v;
    Fun.protect f ~finally:(fun () ->
        Unix.putenv "DRAMSTRESS_JOBS" (Option.value old ~default:""))
  in
  with_env "3" (fun () ->
      Alcotest.(check int) "env wins over cores" 3 (Par.resolve_jobs ());
      Alcotest.(check int) "explicit arg wins over env" 2
        (Par.resolve_jobs ~jobs:2 ());
      Alcotest.(check int) "arg clamped to >= 1" 1
        (Par.resolve_jobs ~jobs:0 ()));
  with_env "not-a-number" (fun () ->
      Alcotest.(check bool) "junk env falls back to >= 1" true
        (Par.resolve_jobs () >= 1));
  with_env "-4" (fun () ->
      Alcotest.(check bool) "negative env falls back to >= 1" true
        (Par.resolve_jobs () >= 1))

(* ------------------------------------------------------------------ *)
(* Probes while disabled                                              *)
(* ------------------------------------------------------------------ *)

let test_disabled_records_nothing () =
  Tel.set_enabled false;
  let c = Tel.Counter.make "test.disabled.counter" in
  let h =
    Tel.Histogram.make ~unit_:"ms" ~lo:0.1 ~hi:100.0 ~buckets:8
      "test.disabled.hist"
  in
  let c0 = Tel.Counter.value c and h0 = Tel.Histogram.count h in
  Tel.Counter.incr c;
  Tel.Counter.add c 41;
  Tel.Histogram.observe h 1.0;
  let timed = Tel.Histogram.time_ms h (fun () -> 7) in
  Alcotest.(check int) "time_ms still runs the thunk" 7 timed;
  Alcotest.(check int) "counter untouched" c0 (Tel.Counter.value c);
  Alcotest.(check int) "histogram untouched" h0 (Tel.Histogram.count h);
  (* a custom sink must see no events, and attrs must not be evaluated *)
  let events = ref 0 and attrs_forced = ref false in
  Tel.set_sink (Tel.Sink.custom (fun _ -> incr events));
  let y =
    Tel.with_span "test.disabled.span"
      ~attrs:(fun () ->
        attrs_forced := true;
        [ ("k", Tel.Int 1) ])
      (fun () -> 11)
  in
  Tel.close_sink ();
  Alcotest.(check int) "with_span still runs the thunk" 11 y;
  Alcotest.(check int) "no events emitted while disabled" 0 !events;
  Alcotest.(check bool) "attrs thunk not evaluated" false !attrs_forced

let test_null_sink_skips_attrs () =
  (* enabled, but with the null sink: spans must not build attributes *)
  Tel.set_enabled true;
  Tel.close_sink ();
  let attrs_forced = ref false in
  let y =
    Tel.with_span "test.null.span"
      ~attrs:(fun () ->
        attrs_forced := true;
        [])
      (fun () -> 5)
  in
  Tel.set_enabled false;
  Alcotest.(check int) "thunk result" 5 y;
  Alcotest.(check bool) "attrs skipped on the null sink" false !attrs_forced

(* ------------------------------------------------------------------ *)
(* Counter integrity under Par fan-out                                *)
(* ------------------------------------------------------------------ *)

let test_counter_monotone_under_par () =
  Tel.set_enabled true;
  let c = Tel.Counter.make "test.fanout.counter" in
  let c0 = Tel.Counter.value c in
  let items = List.init 64 Fun.id in
  let per_item = 500 in
  let results =
    Par.parallel_map ~jobs:4
      (fun i ->
        for _ = 1 to per_item do
          Tel.Counter.incr c
        done;
        i)
      items
  in
  Tel.set_enabled false;
  Alcotest.(check (list int)) "map order preserved" items results;
  Alcotest.(check int) "no increment lost across domains"
    (c0 + (64 * per_item))
    (Tel.Counter.value c);
  (* make is idempotent: a second handle under the same name reads the
     same cell, so cross-library sharing works *)
  let c' = Tel.Counter.make "test.fanout.counter" in
  Alcotest.(check int) "make is idempotent per name" (Tel.Counter.value c)
    (Tel.Counter.value c')

(* ------------------------------------------------------------------ *)
(* Tallies                                                            *)
(* ------------------------------------------------------------------ *)

(* a tally bins by comparison against edges, the locked path by [log]:
   every sample, edges and their neighbouring floats included, lands in
   the same bin either way, with the same count, min and max *)
let test_tally_bins_match_locked () =
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled false) @@ fun () ->
  List.iter
    (fun (lo, hi, buckets, tag) ->
      let mk side =
        Tel.Histogram.make ~lo ~hi ~buckets
          (Printf.sprintf "test.tally.%s.%s" tag side)
      in
      let locked = mk "locked" and tallied = mk "tallied" in
      let ratio = (hi /. lo) ** (1.0 /. float_of_int buckets) in
      let edges =
        List.init (buckets + 1) (fun k -> lo *. (ratio ** float_of_int k))
      in
      let rng = Random.State.make [| buckets |] in
      let samples =
        List.concat_map (fun e -> [ Float.pred e; e; Float.succ e ]) edges
        @ List.init 2000 (fun _ ->
              lo /. 10.0 *. ((100.0 *. hi /. lo) ** Random.State.float rng 1.0))
        @ List.init 130 float_of_int
      in
      let tally = Tel.Tally.create () in
      let cell = [| 0.0 |] in
      List.iter
        (fun v ->
          Tel.Histogram.observe locked v;
          cell.(0) <- v;
          Tel.Tally.observe_at tally tallied cell 0)
        samples;
      Alcotest.(check int) "nothing reaches the registry before the flush" 0
        (Tel.Histogram.count tallied);
      Tel.Tally.flush tally;
      Alcotest.(check (array int)) (tag ^ ": same bins")
        (Tel.Histogram.bins locked) (Tel.Histogram.bins tallied);
      let summary h =
        List.assoc (Tel.Histogram.name h) (Tel.snapshot ()).Tel.histograms
      in
      let a = summary locked and b = summary tallied in
      Alcotest.(check (list (float 0.0))) (tag ^ ": count, min, max")
        [ float_of_int a.Tel.h_count; a.Tel.h_min; a.Tel.h_max ]
        [ float_of_int b.Tel.h_count; b.Tel.h_min; b.Tel.h_max ])
    [ (1e-15, 1e-3, 48, "dt"); (1.0, 128.0, 14, "iters");
      (0.1, 100.0, 8, "ms") ]

(* cells are plain ints until the flush, which adds them only while
   telemetry is on, and empties the tally either way *)
let test_tally_flush () =
  let c = Tel.Counter.make "test.tally.counter" in
  let c0 = Tel.Counter.value c in
  let tally = Tel.Tally.create () in
  let late = Tel.Counter.make "test.tally.made_after_create" in
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled false) @@ fun () ->
  Tel.Tally.add tally c 40;
  Tel.Tally.incr tally c;
  Tel.Tally.incr tally late;
  Alcotest.(check int) "a late counter takes the direct path" 1
    (Tel.Counter.value late);
  Alcotest.(check int) "nothing added before the flush" c0
    (Tel.Counter.value c);
  Tel.Tally.flush tally;
  Alcotest.(check int) "added once" (c0 + 41) (Tel.Counter.value c);
  Tel.Tally.flush tally;
  Alcotest.(check int) "a flushed tally is empty" (c0 + 41)
    (Tel.Counter.value c);
  Tel.Tally.add tally c 7;
  Tel.set_enabled false;
  Tel.Tally.flush tally;
  Tel.set_enabled true;
  Tel.Tally.flush tally;
  Alcotest.(check int) "flushed while off: dropped" (c0 + 41)
    (Tel.Counter.value c)

(* deltas since a mark: only what moved, and the mark advances *)
let test_counter_deltas () =
  let c = Tel.Counter.make "test.deltas.counter" in
  Tel.set_enabled true;
  Fun.protect ~finally:(fun () -> Tel.set_enabled false) @@ fun () ->
  let m = Tel.mark () in
  Tel.Counter.add c 3;
  let fresh = Tel.Counter.make "test.deltas.made_after_mark" in
  Tel.Counter.add fresh 2;
  Alcotest.(check (list (pair string int))) "what moved, by name"
    [ ("test.deltas.counter", 3); ("test.deltas.made_after_mark", 2) ]
    (Tel.deltas_since m);
  Alcotest.(check (list (pair string int))) "the mark advanced" []
    (Tel.deltas_since m);
  let v = Tel.Counter.value c in
  Tel.add_deltas [ ("test.deltas.counter", 5) ];
  Alcotest.(check int) "deltas added" (v + 5) (Tel.Counter.value c)

(* ------------------------------------------------------------------ *)
(* JSON-lines sink round-trip                                         *)
(* ------------------------------------------------------------------ *)

let test_jsonl_roundtrip () =
  let path = Filename.temp_file "dramstress_tel" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Tel.set_enabled true;
  Tel.set_sink (Tel.Sink.jsonl_file path);
  for i = 1 to 3 do
    Tel.with_span "test.jsonl.span"
      ~attrs:(fun () ->
        [
          ("i", Tel.Int i);
          ("r", Tel.Float 1.5);
          ("ok", Tel.Bool true);
          ("msg", Tel.Str {|quote " and \ back|});
        ])
      (fun () -> ())
  done;
  Tel.close_sink ();
  Tel.set_enabled false;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  Alcotest.(check int) "one line per span" 3 (List.length lines);
  List.iteri
    (fun idx line ->
      let has needle =
        let n = String.length needle and l = String.length line in
        let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "line is one JSON object" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      Alcotest.(check bool) "span name present" true
        (has {|"name":"test.jsonl.span"|});
      Alcotest.(check bool) "int attr round-trips" true
        (has (Printf.sprintf {|"i":%d|} (idx + 1)));
      Alcotest.(check bool) "bool attr round-trips" true (has {|"ok":true|});
      Alcotest.(check bool) "string attr is escaped" true
        (has {|quote \" and \\ back|});
      Alcotest.(check bool) "duration field present" true (has {|"dur_ms":|}))
    lines

(* ------------------------------------------------------------------ *)
(* Cache counters vs Ops.Cache.stats on a repeated plane sweep       *)
(* ------------------------------------------------------------------ *)

let cval snap name =
  match List.assoc_opt name snap.Tel.counters with
  | Some v -> v
  | None -> Alcotest.failf "counter %s missing from snapshot" name

let test_cache_counters_reconcile () =
  (* start both ledgers from zero so they must agree exactly *)
  O.Cache.set_enabled O.Cache.default true;
  O.clear_cache ();
  O.Cache.reset_stats O.Cache.default;
  Tel.reset ();
  Tel.set_enabled true;
  let plane () =
    Dramstress_core.Plane.write_plane
      ~config:(Dramstress_dram.Sim_config.v ~jobs:1 ())
      ~n_ops:2 ~rops:[ 5e3; 5e5 ] ~stress:S.nominal ~kind:D.Short_to_gnd
      ~placement:D.True_bl ~op:O.W0 ()
  in
  let p1 = plane () in
  let mid = O.Cache.stats O.Cache.default in
  Alcotest.(check bool) "first sweep ran simulations" true (mid.misses > 0);
  let p2 = plane () in
  Tel.set_enabled false;
  let st = O.Cache.stats O.Cache.default in
  let snap = Tel.snapshot () in
  Alcotest.(check int) "telemetry requests = cache requests" st.requests
    (cval snap "dram.ops.requests");
  Alcotest.(check int) "telemetry hits = cache hits" st.hits
    (cval snap "dram.ops.cache_hits");
  Alcotest.(check int) "telemetry misses = cache misses" st.misses
    (cval snap "dram.ops.cache_misses");
  Alcotest.(check int) "telemetry evictions = cache evictions" st.evictions
    (cval snap "dram.ops.cache_evictions");
  Alcotest.(check int) "requests split into hits + misses"
    st.requests (st.hits + st.misses);
  (* the repeat sweep is identical, so it must be served from cache *)
  Alcotest.(check int) "repeat sweep adds no misses" mid.misses st.misses;
  Alcotest.(check bool) "repeat sweep hits the cache" true
    (st.hits > mid.hits);
  (* every electrical simulation is one ensemble lane, counted as one
     transient run; with no retries or lane fallbacks in this healthy
     sweep the ledgers reconcile exactly *)
  Alcotest.(check int) "misses = ensemble lanes" st.misses
    (cval snap "engine.ensemble.lanes");
  Alcotest.(check int) "transient runs = ensemble lanes"
    (cval snap "engine.ensemble.lanes")
    (cval snap "engine.transient.runs");
  Alcotest.(check int) "no lane fell back to the one-lane ladder" 0
    (cval snap "dram.ops.lane_fallbacks");
  (* and the planes themselves agree *)
  Alcotest.(check (float 1e-12)) "cached sweep reproduces vmp" p1.vmp p2.vmp

let () =
  Alcotest.run "telemetry"
    [
      ( "units",
        [
          Alcotest.test_case "temp_kelvin boundary" `Quick test_temp_kelvin;
          Alcotest.test_case "resolve_jobs precedence" `Quick
            test_resolve_jobs;
        ] );
      ( "probes",
        [
          Alcotest.test_case "disabled records nothing" `Quick
            test_disabled_records_nothing;
          Alcotest.test_case "null sink skips attrs" `Quick
            test_null_sink_skips_attrs;
          Alcotest.test_case "counters monotone under fan-out" `Quick
            test_counter_monotone_under_par;
        ] );
      ( "sinks",
        [ Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip ] );
      ( "cache",
        [
          Alcotest.test_case "counters reconcile with cache_stats" `Slow
            test_cache_counters_reconcile;
        ] );
      ( "tally",
        [
          Alcotest.test_case "bins match the locked path" `Quick
            test_tally_bins_match_locked;
          Alcotest.test_case "flush adds once, only while on" `Quick
            test_tally_flush;
          Alcotest.test_case "counter deltas since a mark" `Quick
            test_counter_deltas;
        ] );
    ]

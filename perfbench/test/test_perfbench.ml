(* Tests for the benchmark's own helpers: percentile selection, self
   time over nested spans, and the seed -> manifest generator. *)

let span ?(domain = 0) name start stop = { Spans.name; start; stop; domain }
let close = Alcotest.float 1e-9

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
  go 0

let test_median () =
  Alcotest.check close "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

let samples n = List.init n (fun i -> float_of_int (i + 1))
let pct = Alcotest.(option (pair close int))

let test_percentile_rank () =
  (* nearest rank: p99 of 1..1000 is the 990th sample, ten beyond it *)
  Alcotest.check pct "p99 of 1000" (Some (990.0, 10))
    (Stats.percentile ~p:99.0 ~min_beyond:10 (samples 1000));
  Alcotest.check pct "p50 of 4" (Some (2.0, 2))
    (Stats.percentile ~p:50.0 ~min_beyond:0 [ 4.0; 3.0; 2.0; 1.0 ])

let test_percentile_tail_rule () =
  (* 999 samples leave only nine beyond the p99 rank: not reportable *)
  Alcotest.check pct "p99 of 999" None
    (Stats.percentile ~p:99.0 ~min_beyond:10 (samples 999));
  Alcotest.check pct "empty" None (Stats.percentile ~p:50.0 ~min_beyond:0 [])

let test_self_nested () =
  (* root 0..10 holds a 2..6 child which holds a 3..4 grandchild, and a
     separate 7..8 child *)
  let spans =
    [ span "root" 0.0 10.0; span "child" 2.0 6.0; span "grand" 3.0 4.0;
      span "child" 7.0 8.0 ]
  in
  Alcotest.check close "root" 5.0 (Spans.self_time "root" spans);
  Alcotest.check close "child" 4.0 (Spans.self_time "child" spans);
  Alcotest.check close "grandchild" 1.0 (Spans.self_time "grand" spans);
  let total = List.fold_left (fun a (_, v) -> a +. v) 0.0 (Spans.self_times spans) in
  Alcotest.check close "self times partition the root" 10.0 total

let test_self_domains_and_order () =
  (* spans on another domain never nest into this one's; input order
     does not matter; a child sharing its parent's start still nests *)
  let spans =
    [ span "inner" 0.0 1.0; span ~domain:1 "other" 0.5 2.0;
      span "outer" 0.0 3.0 ]
  in
  Alcotest.check close "outer" 2.0 (Spans.self_time "outer" spans);
  Alcotest.check close "inner" 1.0 (Spans.self_time "inner" spans);
  Alcotest.check close "other domain" 1.5 (Spans.self_time "other" spans);
  Alcotest.check close "absent" 0.0 (Spans.self_time "missing" spans)

let test_generator_deterministic () =
  List.iter
    (fun w ->
      let ms = Gen.manifests w ~seed:7 in
      Alcotest.(check (list string)) (Gen.name w ^ " same seed") ms
        (Gen.manifests w ~seed:7);
      List.iter
        (fun m ->
          Alcotest.(check bool) (Gen.name w ^ " pins jobs") true
            (contains m "(sim (jobs 1)"))
        ms;
      Alcotest.(check (option string)) "name round-trips" (Some (Gen.name w))
        (Option.map Gen.name (Gen.of_name (Gen.name w))))
    Gen.all;
  Alcotest.(check bool) "seeds differ" true
    (Gen.manifests Gen.Table1_grid ~seed:1 <> Gen.manifests Gen.Table1_grid ~seed:2)

let test_service_colds_distinct () =
  (* every cold submission of a service cycle must simulate: no two
     share a stress corner *)
  let corners =
    List.concat_map
      (fun m ->
        List.filter
          (fun l -> contains l "(stress corner-")
          (String.split_on_char '\n' m))
      (Gen.manifests Gen.Service_sandboxed ~seed:3)
  in
  Alcotest.(check int) "two corners per submission" (2 * Gen.service_colds)
    (List.length corners);
  Alcotest.(check int) "all distinct" (List.length corners)
    (List.length (List.sort_uniq String.compare corners))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [ Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "percentile rank" `Quick test_percentile_rank;
          Alcotest.test_case "percentile tail rule" `Quick
            test_percentile_tail_rule ] );
      ( "spans",
        [ Alcotest.test_case "nested self time" `Quick test_self_nested;
          Alcotest.test_case "domains and order" `Quick
            test_self_domains_and_order ] );
      ( "gen",
        [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "service colds distinct" `Quick
            test_service_colds_distinct ]
      );
    ]

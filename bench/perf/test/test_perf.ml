open Perfbench

let exact = Alcotest.float 0.0

(* ---- nearest-rank percentiles and the ten-beyond rule ---- *)

let test_percentiles () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check exact "p50" 50.0 (Sample.percentile 0.5 xs);
  Alcotest.check exact "p99" 99.0 (Sample.percentile 0.99 xs);
  Alcotest.check exact "p0 is the minimum" 1.0 (Sample.percentile 0.0 xs);
  Alcotest.check exact "p100 is the maximum" 100.0 (Sample.percentile 1.0 xs);
  Alcotest.check exact "rank is ceil (p n)" 3.0
    (Sample.percentile 0.5 [| 5.0; 1.0; 4.0; 2.0; 3.0 |]);
  Alcotest.check exact "median of an even count" 2.5 (Sample.median [| 4.0; 1.0; 3.0; 2.0 |])

let test_ten_beyond () =
  (* at the paper's 526 coflows p90 is the highest supported percentile *)
  Alcotest.(check bool) "p90 of 526" true (Sample.supported 0.9 526);
  Alcotest.(check bool) "p99 of 526" false (Sample.supported 0.99 526);
  Alcotest.(check bool) "p99 of 1000" true (Sample.supported 0.99 1000);
  Alcotest.(check bool) "p99 of 999" false (Sample.supported 0.99 999);
  Alcotest.(check bool) "no samples" false (Sample.supported 0.5 0)

let test_quartiles () =
  (* Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Sample.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check exact "q1" 2.75 q1;
  Alcotest.check exact "q3" 8.25 q3;
  let q1, q3 = Sample.quartiles [| 4.0; 2.0; 3.0; 1.0 |] in
  Alcotest.check exact "q1 of four" 1.25 q1;
  Alcotest.check exact "q3 of four" 3.75 q3;
  Alcotest.check exact "spread" 1.0 (Sample.spread (Array.init 10 (fun i -> float_of_int (i + 1))))

(* ---- JSON round trip through Obs.Json ---- *)

let result =
  { Bench_json.correct = true;
    attempted = 21;
    failed = 0;
    metrics =
      [ { Bench_json.name = "setup_s"; unit_ = "s"; value = 0.074562436999999995 };
        { name = "slots_per_sec"; unit_ = "slots/s"; value = 27459.560192323548 };
        { name = "odd \"name\"\\"; unit_ = "%"; value = 1e-300 };
      ];
  }

let test_result_round_trip () =
  match Bench_json.result_of_string (Bench_json.result_to_string result) with
  | Ok r -> Alcotest.(check bool) "identical" true (r = result)
  | Error e -> Alcotest.fail e

let test_runs_round_trip () =
  let run seed =
    { Bench_json.set = 2;
      workload = "paper_greedy";
      seed;
      traced = seed = 2;
      host_ref_ms = 16.983827000000002;
      result;
    }
  in
  let runs = [ run 1; run 2 ] in
  match Bench_json.runs_of_string (Bench_json.runs_to_string runs) with
  | Ok back -> Alcotest.(check bool) "identical" true (back = runs)
  | Error e -> Alcotest.fail e

let test_malformed () =
  Alcotest.(check bool) "missing fields" true
    (Result.is_error (Bench_json.result_of_string "{\"correct\": true}"));
  Alcotest.(check bool) "fractional count" true
    (Result.is_error
       (Bench_json.result_of_string
          "{\"correct\": true, \"attempted\": 1.5, \"failed\": 0, \"metrics\": {}}"));
  Alcotest.check_raises "nan is not a number" (Invalid_argument "Bench_json.number: not finite")
    (fun () -> ignore (Bench_json.number Float.nan))

(* ---- compare verdicts ---- *)

let verdict =
  Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Verdict.to_string v)) ( = )

let judge ?(better = Verdict.Higher) ?(bound = Some 0.1) olds news =
  Verdict.judge ~better ~bound ~olds:(Array.of_list olds) ~news:(Array.of_list news)

let steady base = List.map (fun d -> base +. d) [ 0.0; 1.0; -1.0; 0.5; -0.5; 0.0; 1.0; -1.0; 0.5; -0.5 ]

let test_verdicts () =
  let check name expected got = Alcotest.check verdict name expected got in
  check "identical" Verdict.Unchanged (judge [ 100.0 ] [ 100.0 ]);
  check "worse past the bound" Verdict.Worse (judge [ 100.0 ] [ 80.0 ]);
  check "worse within the bound" Verdict.Unchanged (judge [ 100.0 ] [ 95.0 ]);
  check "single runs need the bound to gain" Verdict.Unchanged (judge [ 100.0 ] [ 105.0 ]);
  check "single-run gain past the bound" Verdict.Better (judge [ 100.0 ] [ 115.0 ]);
  check "lower is better" Verdict.Worse (judge ~better:Verdict.Lower [ 10.0 ] [ 12.0 ]);
  check "gain past the spread" Verdict.Better (judge (steady 100.0) (steady 104.0));
  check "overlapping runs" Verdict.Unchanged (judge (steady 100.0) (steady 100.5));
  let noisy = [ 70.0; 130.0; 80.0; 120.0; 100.0; 90.0; 110.0; 75.0; 125.0; 100.0 ] in
  check "spread wider than the bound" Verdict.Unresolved (judge noisy (List.map (( +. ) 5.0) noisy));
  check "every new run better" Verdict.Better (judge noisy (List.map (( +. ) 100.0) noisy));
  check "no bound, one run" Verdict.Unresolved (judge ~bound:None [ 1.0 ] [ 2.0 ]);
  check "no bound, clear loss" Verdict.Worse (judge ~bound:None (steady 100.0) (steady 90.0))

(* ---- the metric tables agree with BENCHMARK.json ---- *)

let spec = Obs.Json.parse_exn (Bench_json.read_file "../../../BENCHMARK.json")

let names_units key =
  Option.get (Option.bind (Obs.Json.member key spec) Obs.Json.to_list)
  |> List.map (fun m ->
         let s k = Option.get (Option.bind (Obs.Json.member k m) Obs.Json.to_string) in
         (s "name", if key = "workloads" then "" else s "unit"))

let test_benchmark_json () =
  let pairs = Alcotest.(list (pair string string)) in
  Alcotest.check pairs "workloads"
    (List.map (fun w -> (w.Workloads.name, "")) Workloads.all)
    (names_units "workloads");
  Alcotest.check pairs "end_to_end" Workloads.end_to_end (names_units "end_to_end");
  Alcotest.check pairs "per_layer" Workloads.per_layer (names_units "per_layer");
  Alcotest.(check bool) "bounds parse" true
    (Result.is_ok (Verdict.spec_of_string (Bench_json.read_file "../../../BENCHMARK.json")))

(* ---- traced runs schedule exactly what untraced runs do ---- *)

let small ?(grouped = false) ?(ports = 12) ?(coflows = 40) () =
  { Workloads.name = "small";
    kind = Workloads.Offline { ports; coflows; params = None; mean_gap = None; grouped };
    instances = 2;
  }

let test_traced_equals_untraced () =
  List.iter
    (fun spec ->
      (* raises Workloads.Check when the traced schedule differs *)
      let rep = Runner.run_rep spec ~seed:7 0 ~traced:true in
      List.iter
        (fun (name, _) ->
          Alcotest.(check bool) (name ^ " is declared") true
            (List.mem_assoc name Workloads.per_layer))
        rep.Runner.layers)
    [ small (); small ~grouped:true (); { (small ()) with kind = Workloads.Soak { coflows = 300 } } ]

let test_soak_stream_replays () =
  let sp = Workloads.prepare_soak ~coflows:500 ~seed:3 0 in
  let o = Workloads.run_soak sp in
  let direct =
    Service.Soak.run { Service.Soak.default_config with coflows = 500; seed = 3; plan_seed = 3 }
  in
  Alcotest.(check string) "fingerprint" direct.Service.Soak.stats.Service.Epoch_loop.fingerprint
    o.Workloads.digest

let test_result_shape () =
  let names r = List.map (fun m -> m.Bench_json.name) r.Runner.result.Bench_json.metrics in
  (* enough loop steps for a p99 with ten samples beyond it *)
  let spec = small ~ports:24 ~coflows:120 () in
  let r = Runner.run spec ~seed:1 ~seconds:0 ~traced:false in
  Alcotest.(check (option string)) "no failed check" None r.Runner.failure;
  Alcotest.(check int) "every instance once" 2 r.Runner.result.Bench_json.attempted;
  Alcotest.(check (list string)) "end-to-end metrics" (List.map fst Workloads.end_to_end) (names r);
  let r = Runner.run spec ~seed:1 ~seconds:0 ~traced:true in
  Alcotest.(check (list string)) "per-layer metrics" (List.map fst Workloads.per_layer) (names r)

let () =
  Alcotest.run "perf"
    [ ( "sample",
        [ Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "ten samples beyond" `Quick test_ten_beyond;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
        ] );
      ( "json",
        [ Alcotest.test_case "result round trip" `Quick test_result_round_trip;
          Alcotest.test_case "run file round trip" `Quick test_runs_round_trip;
          Alcotest.test_case "malformed input" `Quick test_malformed;
          Alcotest.test_case "BENCHMARK.json matches the tables" `Quick test_benchmark_json;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ( "workloads",
        [ Alcotest.test_case "traced equals untraced" `Quick test_traced_equals_untraced;
          Alcotest.test_case "soak stream replays the poisson soak" `Quick test_soak_stream_replays;
          Alcotest.test_case "result shape" `Quick test_result_shape;
        ] );
    ]

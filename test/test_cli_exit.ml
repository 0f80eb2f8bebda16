(* End-to-end CLI error-path tests: run the real executables and assert
   exit codes and usage output.  Executables are located relative to this
   test binary inside the build context (_build/default/test), so the test
   works under both `dune runtest` and `dune exec`; the (deps ...) field
   of the dune stanza guarantees they exist before the test runs. *)

let build_root = Filename.dirname (Filename.dirname Sys.executable_name)

let exe dir name = Filename.concat (Filename.concat build_root dir) name

let experiments_exe = exe "bin" "experiments_main.exe"

let bench_exe = exe "bench" "main.exe"

let service_exe = exe "bin" "coflow_service.exe"

let sim_exe = exe "bin" "coflow_sim.exe"

let trace_gen_exe = exe "bin" "trace_gen.exe"

let read_file path =
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

(* Run [exe args], return (exit code, combined stdout+stderr). *)
let run exe args =
  let out = Filename.temp_file "cli_exit" ".out" in
  let cmd =
    Printf.sprintf "%s > %s 2>&1"
      (String.concat " " (List.map Filename.quote (exe :: args)))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let text = read_file out in
  Sys.remove out;
  (code, text)

let check_exit exe args expected =
  let code, text = run exe args in
  if code <> expected then
    Alcotest.failf "%s %s: expected exit %d, got %d\n%s"
      (Filename.basename exe)
      (String.concat " " args)
      expected code text;
  text

let contains affix text = Astring.String.is_infix ~affix text

(* Run [f path] on a temporary file holding [contents]. *)
let with_file contents f =
  let path = Filename.temp_file "cli_exit" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  f path

(* a one-coflow trace every driver accepts *)
let good_trace = "coflow-trace v1\n2 1\n0 0 1.0 1\n0 1 3\n"

(* line 4 names port 5 on a 2-port fabric *)
let bad_trace = "coflow-trace v1\n2 1\n0 0 1.0 1\n0 5 3\n"

(* cmdliner misuse exits 124 and points at usage *)

let test_experiments_misuse () =
  let t = check_exit experiments_exe [ "--jobs"; "0" ] 124 in
  Alcotest.(check bool) "names the offender" true (contains "jobs" t);
  let t = check_exit experiments_exe [ "--only"; "E99" ] 124 in
  Alcotest.(check bool) "explains the id range" true (contains "E1..E21" t);
  (* one bad id poisons the whole comma-separated list *)
  ignore (check_exit experiments_exe [ "--only"; "E21,E99" ] 124);
  ignore (check_exit experiments_exe [ "--scale"; "sideways" ] 124);
  ignore (check_exit experiments_exe [ "--csv"; "/no/such/dir" ] 124);
  (* the term takes no positional arguments: trailing garbage is misuse *)
  ignore (check_exit experiments_exe [ "--scale"; "quick"; "leftover" ] 124);
  (* an omitted optional PATH never swallows the next flag: --only still
     reaches its own parser, which rejects the id *)
  List.iter
    (fun flag ->
      let t = check_exit experiments_exe [ flag; "--only"; "E99" ] 124 in
      Alcotest.(check bool) (flag ^ " left --only alone") true
        (contains "E99" t))
    [ "--profile"; "--trace" ]

let test_service_misuse () =
  let t = check_exit service_exe [ "--bogus" ] 124 in
  Alcotest.(check bool) "unknown option reported" true (contains "bogus" t);
  ignore (check_exit service_exe [ "--coflows"; "0" ] 124);
  ignore (check_exit service_exe [ "--coflows"; "ten" ] 124);
  ignore (check_exit service_exe [ "--process"; "bursty" ] 124);
  ignore (check_exit service_exe [ "--coflows"; "5"; "extra" ] 124)

let test_bench_misuse () =
  let t = check_exit bench_exe [] 124 in
  Alcotest.(check bool) "names both subcommands" true
    (contains "kernels" t && contains "obs-diff" t);
  List.iter
    (fun args -> ignore (check_exit bench_exe args 124))
    [ [ "no-such-mode" ];
      (* the experiments run under experiments_main only *)
      [ "tables"; "--scale"; "quick" ];
      [ "kernels"; "--json" ];
      [ "obs-diff"; "a.json" ];
      [ "obs-diff"; "a"; "b"; "c" ];
      [ "obs-diff"; "a"; "b"; "--threshold"; "x" ];
      [ "obs-diff"; "a"; "b"; "--threshold"; "-1" ];
      [ "obs-diff"; "a"; "b"; "--threshold=-1" ];
      [ "obs-diff"; "a"; "b"; "--json" ];
    ];
  let t = check_exit bench_exe [ "obs-diff"; "a"; "b"; "--bogus" ] 124 in
  Alcotest.(check bool) "unknown flag named" true (contains "bogus" t)

let test_sim_misuse () =
  with_file good_trace @@ fun trace ->
  List.iter
    (fun (flag, choice) ->
      let t = check_exit sim_exe [ trace; flag; "bogus" ] 124 in
      Alcotest.(check bool) (flag ^ " lists its choices") true
        (contains choice t))
    [ ("--order", "hrho"); ("--case", "'d'"); ("--baseline", "varys") ];
  ignore (check_exit sim_exe [ trace; "--order"; "hrho"; "--case"; "b" ] 0)

let test_trace_gen_misuse () =
  let t = check_exit trace_gen_exe [ "out.trace"; "--kind"; "zipf" ] 124 in
  Alcotest.(check bool) "lists the kinds" true (contains "mapreduce" t)

(* hostile input gets a named error and exit 123, never an uncaught
   exception (125) *)

let test_sim_bad_trace () =
  with_file bad_trace @@ fun trace ->
  let t = check_exit sim_exe [ trace ] 123 in
  Alcotest.(check bool) "names file and line" true
    (contains trace t && contains "line 4" t);
  Alcotest.(check bool) "no backtrace" false (contains "uncaught" t)

(* blank lines count: the bad flow sits on file line 6 *)
let test_sim_blank_lines () =
  with_file "coflow-trace v1\n\n2 1\n\n0 0 1.0 1\n0 5 3\n" @@ fun trace ->
  let t = check_exit sim_exe [ trace ] 123 in
  Alcotest.(check bool) "names file line 6" true
    (contains trace t && contains "line 6" t)

(* line 5's flow would push the coflow's total past max_int: unchecked,
   the row sum wraps negative and the run hangs or dies with exit 125 *)
let test_sim_overflow_trace () =
  with_file
    (Printf.sprintf "coflow-trace v1\n2 1\n0 0 1 2\n0 0 %d\n0 1 %d\n" max_int
       max_int)
  @@ fun trace ->
  let t = check_exit sim_exe [ trace; "--order"; "hrho"; "--case"; "b" ] 123 in
  Alcotest.(check bool) "names line and entry" true
    (contains "line 5" t && contains "(0, 1)" t)

(* two coflows of 2^61 units: each loads, together they wrap the
   instance's total negative and the LP grid comes out too short (an
   uncaught exception, exit 125) *)
let test_sim_overflow_total () =
  with_file
    (Printf.sprintf "coflow-trace v1\n2 2\n0 0 1 1\n0 1 %d\n1 0 1 1\n1 0 %d\n"
       (1 lsl 61) (1 lsl 61))
  @@ fun trace ->
  let t = check_exit sim_exe [ trace ] 123 in
  Alcotest.(check bool) "names line and coflow" true
    (contains "line 5" t && contains "coflow 1" t);
  Alcotest.(check bool) "no backtrace" false (contains "uncaught" t)

(* one flow of 2^61 + 1 units on 2 ports: the instance's total fits, but
   the grouping's class search doubled past max_int and never ended
   (cases c, d), and BvN's augmentation to 2 x (2^61 + 1) units failed
   inside [Mat] (exit 125, cases a, b); now every case refuses it by
   name before scheduling *)
let test_sim_bvn_overflow () =
  with_file
    (Printf.sprintf "coflow-trace v1\n2 1\n0 0 1 1\n0 1 %d\n"
       ((1 lsl 61) + 1))
  @@ fun trace ->
  List.iter
    (fun case ->
      let t =
        check_exit sim_exe [ trace; "--order"; "hrho"; "--case"; case ] 123
      in
      Alcotest.(check bool) ("case " ^ case ^ ": names the limit") true
        (contains trace t && contains "BvN" t && contains "coflow 0" t);
      Alcotest.(check bool) ("case " ^ case ^ ": no backtrace") false
        (contains "uncaught" t))
    [ "a"; "b"; "c"; "d" ]

(* the audit's note on a baseline run is one line with single spaces *)
let test_sim_audit_baseline () =
  with_file good_trace @@ fun trace ->
  let t = check_exit sim_exe [ trace; "--baseline"; "fifo"; "--audit" ] 0 in
  Alcotest.(check bool) "one line" true
    (contains
       "audit: Lemma 2 / Proposition 1 need an ordering-based run (not a \
        baseline)\n"
       t)

(* an unwritable --record FILE is named, not an uncaught [Sys_error] *)
let test_sim_unwritable_record () =
  with_file good_trace @@ fun trace ->
  let missing = Filename.concat trace "sub.csv" in
  let t =
    check_exit sim_exe
      [ trace; "--order"; "hrho"; "--case"; "d"; "--record"; missing ]
      123
  in
  Alcotest.(check bool) "names the unwritable path" true (contains missing t);
  Alcotest.(check bool) "no backtrace" false (contains "uncaught" t)

(* one flow of 2^40 units on 2 ports outlasts the simulator's
   10,000,000-slot budget: the run used to die with the uncaught
   [Failure] (exit 125) *)
let test_sim_budget_exhausted () =
  with_file
    (Printf.sprintf "coflow-trace v1\n2 1\n0 0 1.0 1\n0 1 %d\n" (1 lsl 40))
  @@ fun trace ->
  List.iter
    (fun args ->
      let t = check_exit sim_exe (trace :: args) 123 in
      let what = String.concat " " args in
      Alcotest.(check bool) (what ^ ": names trace and budget") true
        (contains (trace ^ ": Simulator.run: slot budget exhausted") t);
      Alcotest.(check bool) (what ^ ": no backtrace") false
        (contains "uncaught" t))
    [ [ "--order"; "hrho"; "--case"; "a" ]; [ "--baseline"; "fifo" ] ]

let test_service_bad_replay () =
  with_file bad_trace @@ fun trace ->
  let t = check_exit service_exe [ "--replay"; trace ] 123 in
  Alcotest.(check bool) "names file and line" true
    (contains trace t && contains "line 4" t)

let test_trace_gen_bad_shape () =
  let out = Filename.temp_file "cli_exit" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove out) @@ fun () ->
  let t = check_exit trace_gen_exe [ out; "--ports"; "0" ] 123 in
  Alcotest.(check bool) "generator message" true (contains "ports" t);
  let missing = Filename.concat out "sub.trace" in
  let t = check_exit trace_gen_exe [ missing ] 123 in
  Alcotest.(check bool) "names the unwritable path" true (contains missing t)

(* obs-diff: 0 when no gated metric moved, 1 on a regression, 2 when a
   profile cannot be read *)

let profile counter =
  Printf.sprintf
    "{\"counters\": {\"sim.slots\": %d}, \"gauges\": {\"sched.utilization\": \
     0.5}}"
    counter

let test_obs_diff_pass () =
  with_file (profile 100) @@ fun p ->
  let verdict = Filename.temp_file "cli_exit" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove verdict) @@ fun () ->
  let t =
    check_exit bench_exe
      [ "obs-diff"; p; p; "--threshold"; "5"; "--time-threshold"; "50";
        "--json"; verdict;
      ]
      0
  in
  Alcotest.(check bool) "verdict line" true (contains "obs-diff: OK" t);
  Alcotest.(check bool) "verdict JSON agrees" true
    (contains "\"ok\": true" (read_file verdict))

let test_obs_diff_regression () =
  with_file (profile 100) @@ fun old_p ->
  with_file (profile 200) @@ fun new_p ->
  let t = check_exit bench_exe [ "obs-diff"; old_p; new_p ] 1 in
  Alcotest.(check bool) "names the counter" true
    (contains "sim.slots" t && contains "obs-diff: FAIL" t)

let test_obs_diff_malformed () =
  with_file (profile 100) @@ fun good ->
  with_file "{\"counters\": " @@ fun bad ->
  let t = check_exit bench_exe [ "obs-diff"; good; bad ] 2 in
  Alcotest.(check bool) "names the file" true (contains bad t);
  let missing = good ^ ".missing" in
  let t = check_exit bench_exe [ "obs-diff"; missing; good ] 2 in
  Alcotest.(check bool) "names the missing file" true (contains missing t)

(* a tiny real soak must pass all gates and exit 0 *)

let test_service_smoke () =
  let t =
    check_exit service_exe
      [ "--coflows"; "60"; "--seed"; "3"; "--verify-replay" ]
      0
  in
  Alcotest.(check bool) "reports passing gates" true (contains "PASS" t)

(* a real quick E21 run: the hetero arena and its fault leg must pass
   their own gates (audit-clean, outage-clean) and land hetero.json *)

let test_experiments_hetero_smoke () =
  let dir = Filename.temp_file "cli_e21" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let t =
    check_exit experiments_exe
      [ "--only"; "E21"; "--scale"; "quick"; "--csv"; dir ]
      0
  in
  Alcotest.(check bool) "fault leg drained on the survivor" true
    (contains "outage_clean=true" t && contains "audit_ok=true" t);
  let json = Filename.concat dir "hetero.json" in
  Alcotest.(check bool) "hetero.json written" true (Sys.file_exists json)

(* E8 runs under the one experiment driver *)

let test_experiments_openshop_smoke () =
  let t = check_exit experiments_exe [ "--only"; "E8"; "--scale"; "quick" ] 0 in
  Alcotest.(check bool) "renders the open-shop table" true
    (contains "Diagonal-coflow equivalence" t)

let () =
  Alcotest.run "cli-exit"
    [ ( "misuse",
        [ Alcotest.test_case "experiments_main" `Quick test_experiments_misuse;
          Alcotest.test_case "coflow_service" `Quick test_service_misuse;
          Alcotest.test_case "bench main" `Quick test_bench_misuse;
          Alcotest.test_case "coflow_sim" `Quick test_sim_misuse;
          Alcotest.test_case "trace_gen" `Quick test_trace_gen_misuse;
        ] );
      ( "hostile-input",
        [ Alcotest.test_case "coflow_sim malformed trace" `Quick
            test_sim_bad_trace;
          Alcotest.test_case "coflow_sim overflowing trace" `Quick
            test_sim_overflow_trace;
          Alcotest.test_case "coflow_service malformed replay" `Quick
            test_service_bad_replay;
          Alcotest.test_case "trace_gen impossible shape" `Quick
            test_trace_gen_bad_shape;
          Alcotest.test_case "coflow_sim instance total past max_int" `Quick
            test_sim_overflow_total;
          Alcotest.test_case "coflow_sim blank lines counted" `Quick
            test_sim_blank_lines;
          Alcotest.test_case "coflow_sim load BvN cannot augment" `Quick
            test_sim_bvn_overflow;
          Alcotest.test_case "coflow_sim audit of a baseline" `Quick
            test_sim_audit_baseline;
          Alcotest.test_case "coflow_sim unwritable record file" `Quick
            test_sim_unwritable_record;
          Alcotest.test_case "coflow_sim slot budget exhausted" `Quick
            test_sim_budget_exhausted;
        ] );
      ( "obs-diff",
        [ Alcotest.test_case "identical profiles pass" `Quick
            test_obs_diff_pass;
          Alcotest.test_case "doubled counter fails" `Quick
            test_obs_diff_regression;
          Alcotest.test_case "unreadable profile exits 2" `Quick
            test_obs_diff_malformed;
        ] );
      ( "smoke",
        [ Alcotest.test_case "coflow_service passes" `Quick test_service_smoke;
          Alcotest.test_case "E21 hetero quick run" `Quick
            test_experiments_hetero_smoke;
          Alcotest.test_case "E8 open shop quick run" `Quick
            test_experiments_openshop_smoke;
        ] );
    ]

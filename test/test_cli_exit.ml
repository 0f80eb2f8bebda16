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

(* Run [exe args], return (exit code, combined stdout+stderr). *)
let run exe args =
  let out = Filename.temp_file "cli_exit" ".out" in
  let cmd =
    Printf.sprintf "%s > %s 2>&1"
      (String.concat " " (List.map Filename.quote (exe :: args)))
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
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
  ignore (check_exit experiments_exe [ "--scale"; "quick"; "leftover" ] 124)

let test_service_misuse () =
  let t = check_exit service_exe [ "--bogus" ] 124 in
  Alcotest.(check bool) "unknown option reported" true (contains "bogus" t);
  ignore (check_exit service_exe [ "--coflows"; "0" ] 124);
  ignore (check_exit service_exe [ "--coflows"; "ten" ] 124);
  ignore (check_exit service_exe [ "--process"; "bursty" ] 124);
  ignore (check_exit service_exe [ "--coflows"; "5"; "extra" ] 124)

(* the bench driver's hand-rolled parser exits 2 with its own usage *)

let test_bench_misuse () =
  let t = check_exit bench_exe [ "--jobs"; "0" ] 2 in
  Alcotest.(check bool) "prints usage" true (contains "usage:" t);
  let t = check_exit bench_exe [ "--trace"; "T.json"; "garbage" ] 2 in
  Alcotest.(check bool) "trailing garbage rejected with usage" true
    (contains "usage:" t);
  ignore (check_exit bench_exe [ "no-such-mode" ] 2);
  ignore (check_exit bench_exe [ "--scale"; "enormous" ] 2)

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

let () =
  Alcotest.run "cli-exit"
    [ ( "misuse",
        [ Alcotest.test_case "experiments_main" `Quick test_experiments_misuse;
          Alcotest.test_case "coflow_service" `Quick test_service_misuse;
          Alcotest.test_case "bench main" `Quick test_bench_misuse;
        ] );
      ( "smoke",
        [ Alcotest.test_case "coflow_service passes" `Quick test_service_smoke;
          Alcotest.test_case "E21 hetero quick run" `Quick
            test_experiments_hetero_smoke;
        ] );
    ]

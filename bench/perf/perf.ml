(* The benchmark's command line.

     perf.exe bench --workload W [--seed S] [--seconds T] [--trace 0|1]
         one workload in this process; prints each metric, then the
         result object as the last line; exit 1 when a check failed.
     perf.exe run [--workload W]... [--seed S]... [--seconds T] [--traced]
                  [--out PATH [--append]]
         every (seed, workload) as a fresh child process, strictly one at
         a time; writes the run file.
     perf.exe compare OLD NEW [--spec BENCHMARK.json]
         better / worse / unchanged / unresolved per (workload, metric);
         exit 1 when anything is worse. *)

open Cmdliner
open Perfbench

let default_seconds = 20

let workload_conv =
  let parse s =
    match Workloads.find s with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown workload %S (one of: %s)" s
             (String.concat ", " (List.map (fun w -> w.Workloads.name) Workloads.all))))
  in
  Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf w.Workloads.name)

let seconds_arg =
  Arg.(
    value & opt int default_seconds
    & info [ "seconds" ] ~docv:"T" ~doc:"Measure for at least $(docv) seconds.")

(* ---- bench ---- *)

let bench spec seed seconds trace =
  let traced = trace = 1 in
  Printf.printf "workload %s  seed %d  seconds %d  %s\n%!" spec.Workloads.name seed seconds
    (if traced then "traced" else "untraced");
  let r = Runner.run spec ~seed ~seconds ~traced in
  Printf.printf "host.ref_ms %s\n" (Bench_json.number r.Runner.host_ref_ms);
  Option.iter
    (fun o ->
      Printf.printf "instance 0: slots %d  steps %d  digest %s\n" o.Workloads.slots
        o.Workloads.steps o.Workloads.digest)
    r.Runner.first;
  Option.iter (Printf.printf "CHECK FAILED: %s\n") r.Runner.failure;
  List.iter
    (fun m ->
      Printf.printf "  %-28s %16.6g %s\n" m.Bench_json.name m.Bench_json.value
        m.Bench_json.unit_)
    r.Runner.result.Bench_json.metrics;
  print_endline (Bench_json.result_to_string r.Runner.result);
  if r.Runner.result.Bench_json.correct then 0 else 1

let bench_cmd =
  let workload =
    Arg.(
      required
      & opt (some workload_conv) None
      & info [ "workload" ] ~docv:"W" ~doc:"Workload to run.")
  in
  let seed =
    Arg.(value & opt int Workloads.default_seed & info [ "seed" ] ~docv:"S" ~doc:"Input seed.")
  in
  let trace =
    Arg.(
      value
      & opt (enum [ ("0", 0); ("1", 1) ]) 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"1: report the per-layer metrics of a traced run instead of the end-to-end ones.")
  in
  Cmd.v
    (Cmd.info "bench" ~doc:"Run one workload in this process.")
    Term.(const bench $ workload $ seed $ seconds_arg $ trace)

(* ---- run ---- *)

(* One child: its output is echoed; the last line is the result object and
   a [host.ref_ms] line carries the host reference. *)
let run_child ~workload ~seed ~seconds ~traced =
  let args =
    [| Sys.executable_name; "bench"; "--workload"; workload; "--seed"; string_of_int seed;
       "--seconds"; string_of_int seconds; "--trace"; (if traced then "1" else "0");
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  List.iter print_endline lines;
  let host =
    List.find_map
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "host.ref_ms"; v ] -> float_of_string_opt v
        | _ -> None)
      lines
  in
  let result =
    match List.rev lines with
    | last :: _ -> Bench_json.result_of_string last
    | [] -> Error "no output"
  in
  (* a child whose checks failed exits 1 and still reports *)
  match (result, host) with
  | Ok r, Some host_ref_ms
    when status = Unix.WEXITED (if r.Bench_json.correct then 0 else 1) ->
    Ok (r, host_ref_ms)
  | Error e, _ -> Error e
  | _ -> Error "child failed"

let run workloads seeds seconds traced out append =
  let workloads = if workloads = [] then Workloads.all else workloads in
  let seeds = if seeds = [] then [ Workloads.default_seed ] else seeds in
  let previous =
    match out with
    | Some path when append && Sys.file_exists path -> (
      match Bench_json.runs_of_string (Bench_json.read_file path) with
      | Ok runs -> runs
      | Error e -> failwith (Printf.sprintf "%s: %s" path e))
    | _ -> []
  in
  let set = 1 + List.fold_left (fun m r -> max m r.Bench_json.set) 0 previous in
  let ok = ref true in
  let runs =
    List.concat_map
      (fun seed ->
        List.filter_map
          (fun w ->
            let workload = w.Workloads.name in
            match run_child ~workload ~seed ~seconds ~traced with
            | Ok (result, host_ref_ms) ->
              if not result.Bench_json.correct then ok := false;
              Some { Bench_json.set; workload; seed; traced; host_ref_ms; result }
            | Error e ->
              ok := false;
              Printf.printf "%s seed %d: %s\n%!" workload seed e;
              None)
          workloads)
      seeds
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc (Bench_json.runs_to_string (previous @ runs)));
      Printf.printf "wrote %s (%d runs)\n" path (List.length (previous @ runs)))
    out;
  if !ok then 0 else 1

let run_cmd =
  let workloads =
    Arg.(
      value & opt_all workload_conv []
      & info [ "workload" ] ~docv:"W" ~doc:"Workload to run (repeatable; default: all four).")
  in
  let seeds =
    Arg.(
      value & opt_all int []
      & info [ "seed" ] ~docv:"S" ~doc:"Input seed (repeatable; default 20150613).")
  in
  let traced =
    Arg.(value & flag & info [ "traced" ] ~doc:"Run traced and report the per-layer metrics.")
  in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"PATH" ~doc:"Run file to write.") in
  let append =
    Arg.(value & flag & info [ "append" ] ~doc:"Add the runs to an existing $(b,--out) file as a new set.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run workloads, each in a fresh child process, one at a time.")
    Term.(const run $ workloads $ seeds $ seconds_arg $ traced $ out $ append)

(* ---- compare ---- *)

let compare_runs old_path new_path spec_path =
  let load path =
    match Bench_json.runs_of_string (Bench_json.read_file path) with
    | Ok runs -> runs
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)
  in
  let spec =
    match Verdict.spec_of_string (Bench_json.read_file spec_path) with
    | Ok s -> s
    | Error e -> failwith e
  in
  let olds = load old_path and news = load new_path in
  let values runs workload name =
    List.concat_map
      (fun r ->
        if r.Bench_json.workload <> workload then []
        else
          List.filter_map
            (fun m -> if m.Bench_json.name = name then Some m.Bench_json.value else None)
            r.Bench_json.result.Bench_json.metrics)
      runs
    |> Array.of_list
  in
  let worse = ref false in
  Printf.printf "%-14s %-28s %14s %14s %9s  %s\n" "workload" "metric" "old median"
    "new median" "change" "verdict";
  List.iter
    (fun w ->
      let workload = w.Workloads.name in
      List.iter
        (fun { Verdict.name; better; bound } ->
          let o = values olds workload name and n = values news workload name in
          if Array.length o > 0 && Array.length n > 0 then begin
            let v = Verdict.judge ~better ~bound ~olds:o ~news:n in
            if v = Verdict.Worse then worse := true;
            let mo = Sample.median o and mn = Sample.median n in
            Printf.printf "%-14s %-28s %14.6g %14.6g %+8.2f%%  %s\n" workload name mo mn
              (if mo = 0.0 then 0.0 else 100.0 *. (mn -. mo) /. Float.abs mo)
              (Verdict.to_string v)
          end)
        spec)
    Workloads.all;
  if !worse then 1 else 0

let compare_cmd =
  let file n docv = Arg.(required & pos n (some file) None & info [] ~docv) in
  let spec =
    Arg.(
      value & opt file "BENCHMARK.json"
      & info [ "spec" ] ~docv:"PATH" ~doc:"Metric directions and bounds.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Judge NEW runs against OLD runs, per workload and metric.")
    Term.(const compare_runs $ file 0 "OLD" $ file 1 "NEW" $ spec)

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "perf" ~doc:"Coflow scheduling benchmark.") [ bench_cmd; run_cmd; compare_cmd ]))

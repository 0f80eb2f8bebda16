(* Regenerate every table and figure of the paper's evaluation section:
   the one driver for experiments.

   Usage:  experiments_main [--scale quick|default|large] [--only E1,E2,...]
           [--csv DIR] [--jobs N] [--profile [PATH]] [--trace [PATH]]
           [--stretch] [--telemetry [PATH]]

   Experiment ids: E1 table1, E2 fig2a, E3 fig2b, E4 lowerbound, E5 audit,
   E6 randomized, E7 releases, E8 openshop, E9 ablation,
   E10 orderings, E11 lpgrid, E12 online, E13 robust, E14 dag, E15 fabric,
   E16 faults, E17 soak, E18 scale (150 ports; --stretch adds the 10x
   variant), E19 arena (every algorithm ranked vs lower bounds), E20
   telemetry (fault windows vs raised alerts; --csv also writes
   telemetry.json; --telemetry BASE writes the live artifacts), E21 hetero
   (k parallel fabrics with rate skews vs the rate-aware isolation bound).
   E15, E18, E19 and E21 run on the arena harness; --csv also writes their
   arena JSON as fabric.json, scale.json, arena.json and hetero.json. *)

open Cmdliner

let run_all scale only csv_dir profile trace jobs stretch telemetry =
  if profile <> None || trace <> None then begin
    Obs.Events.set_enabled true;
    Obs.Histogram.set_enabled true
  end;
  if trace <> None then Obs.Trace.set_enabled true;
  let cfg = Experiments.Config.of_scale scale in
  let wants tag = match only with [] -> true | l -> List.mem tag l in
  Format.printf "configuration: %a@.@." Experiments.Config.pp cfg;
  let need_blocks =
    List.exists wants [ "E1"; "E2"; "E3"; "E5"; "E6"; "E9"; "E10" ]
  in
  let blocks =
    if need_blocks then begin
      Format.printf
        "building (filter x weighting) blocks — this solves the interval LP \
         %d times...@."
        (2 * List.length cfg.Experiments.Config.filters);
      let blocks, seconds =
        Obs.Span.timed "experiments.blocks" (fun () ->
            Experiments.Harness.all_blocks ~jobs cfg)
      in
      Format.printf "blocks ready in %.1fs@.@." seconds;
      blocks
    end
    else []
  in
  let save name content =
    match csv_dir with
    | None -> ()
    | Some dir ->
      let path = Filename.concat dir name in
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      Format.printf "(wrote %s)@." path
  in
  if wants "E1" then begin
    print_string (Experiments.Exp_table1.render blocks);
    save "table1.csv" (Experiments.Exp_table1.csv blocks);
    print_newline ()
  end;
  if wants "E2" then begin
    print_string (Experiments.Exp_fig2a.render blocks);
    save "fig2a.csv" (Experiments.Exp_fig2a.csv blocks);
    print_newline ()
  end;
  if wants "E3" then begin
    print_string (Experiments.Exp_fig2b.render blocks);
    save "fig2b.csv" (Experiments.Exp_fig2b.csv blocks);
    print_newline ()
  end;
  if wants "E4" then begin
    print_string (Experiments.Exp_lower_bound.render
                    (Experiments.Exp_lower_bound.run cfg));
    print_newline ()
  end;
  if wants "E5" then begin
    print_string (Experiments.Exp_audit.render blocks);
    print_newline ()
  end;
  if wants "E6" then begin
    print_string (Experiments.Exp_randomized.render cfg blocks);
    print_newline ()
  end;
  if wants "E7" then begin
    print_string (Experiments.Exp_releases.render
                    (Experiments.Exp_releases.run cfg));
    print_newline ()
  end;
  if wants "E8" then begin
    print_string (Experiments.Exp_openshop.render cfg);
    print_newline ()
  end;
  if wants "E9" then begin
    print_string (Experiments.Exp_ablation.render blocks);
    print_newline ()
  end;
  if wants "E10" then begin
    print_string (Experiments.Exp_orderings.render blocks);
    print_newline ()
  end;
  if wants "E11" then begin
    print_string (Experiments.Exp_lp_grid.render ~jobs cfg);
    print_newline ()
  end;
  if wants "E12" then begin
    print_string (Experiments.Exp_online.render ~jobs cfg);
    print_newline ()
  end;
  if wants "E13" then begin
    print_string (Experiments.Exp_robust.render cfg);
    print_newline ()
  end;
  if wants "E14" then begin
    print_string (Experiments.Exp_dag.render cfg);
    print_newline ()
  end;
  let arena experiment file legs =
    print_string (Experiments.Arena.render legs);
    save file (Experiments.Arena.json ~experiment legs);
    print_newline ()
  in
  if wants "E15" then
    arena "E15" "fabric.json" (Experiments.Exp_fabric.run ~jobs cfg);
  if wants "E16" then begin
    print_string (Experiments.Exp_faults.render cfg);
    print_newline ()
  end;
  if wants "E17" then begin
    print_string (Experiments.Exp_soak.render ?telemetry cfg);
    print_newline ()
  end;
  if wants "E18" then begin
    let t = Experiments.Exp_scale.run ~stretch ~jobs cfg in
    print_string (Experiments.Exp_scale.render t);
    save "scale.json"
      (Experiments.Arena.json ~experiment:"E18" (Experiments.Exp_scale.legs t));
    print_newline ()
  end;
  if wants "E19" then
    arena "E19" "arena.json" (Experiments.Exp_arena.run ~jobs cfg);
  if wants "E21" then
    arena "E21" "hetero.json" (Experiments.Exp_hetero.run ~jobs cfg);
  let telemetry_ok = ref true in
  if wants "E20" then begin
    let r = Experiments.Exp_telemetry.run ?telemetry cfg in
    telemetry_ok := Experiments.Exp_telemetry.all_pass r;
    print_string (Experiments.Exp_telemetry.render r);
    save "telemetry.json" (Experiments.Exp_telemetry.json r);
    print_newline ()
  end;
  (match profile with
  | None -> ()
  | Some path ->
    Obs.Profile.write path;
    Format.printf "(wrote %s)@." path);
  (match trace with
  | None -> ()
  | Some path ->
    Obs.Trace.write path;
    Format.printf "(wrote %s: %d trace events)@." path (Obs.Trace.length ()));
  if !telemetry_ok then 0 else 1

let scale_conv =
  let parse s =
    match Experiments.Config.scale_of_string s with
    | Some v -> Ok v
    | None -> Error (`Msg (Printf.sprintf "unknown scale %S" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
      | Experiments.Config.Quick -> "quick"
      | Experiments.Config.Default -> "default"
      | Experiments.Config.Large -> "large")
  in
  Arg.conv (parse, print)

let scale_arg =
  Arg.(
    value
    & opt scale_conv Experiments.Config.Default
    & info [ "scale" ] ~docv:"SCALE" ~doc:"quick | default | large")

let experiment_ids =
  List.init 21 (fun i -> Printf.sprintf "E%d" (i + 1))

let experiment_id_conv =
  let parse s =
    if List.mem s experiment_ids then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown experiment id %S (expected E1..E21)" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let only_arg =
  Arg.(
    value
    & opt (list experiment_id_conv) []
    & info [ "only" ] ~docv:"IDS"
        ~doc:"Comma-separated experiment ids (E1..E21); default all")

let csv_arg =
  Arg.(
    value
    & opt (some dir) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write CSV outputs to DIR")

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some "PROFILE.json") (some string) None
    & info [ "profile" ] ~docv:"PATH"
        ~doc:
          "Write a machine-readable profile (spans, counters, per-slot \
           events) to PATH; defaults to PROFILE.json when PATH is omitted")

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "TRACE.json") (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:
          "Write a Chrome-trace-format (Perfetto-loadable) flight-recorder \
           trace to PATH; defaults to TRACE.json when PATH is omitted")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ -> Error (`Msg "must be a positive integer")
    | None -> Error (`Msg (Printf.sprintf "invalid integer %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value & opt positive_int 1
    & info [ "jobs" ] ~docv:"N"
        ~doc:
          "Run independent experiment simulations on N domains (default 1). \
           Output is identical at any N.")

let stretch_arg =
  Arg.(
    value & flag
    & info [ "stretch" ]
        ~doc:
          "E18 only: also run the 10x-coflow-count stretch variant (5260 \
           coflows at 150 ports)")

let telemetry_arg =
  Arg.(
    value
    & opt ~vopt:(Some "TELEMETRY") (some string) None
    & info [ "telemetry" ] ~docv:"PATH"
        ~doc:
          "Stream live telemetry while the service experiments (E17, E20) \
           run: per-epoch JSONL snapshots to PATH-*.jsonl, a Prometheus \
           text exposition refreshed at PATH-*.prom, and the alert \
           timeline at PATH-*.alerts.json; defaults to TELEMETRY when \
           PATH is omitted")

let cmd =
  let doc = "Regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "coflow-experiments" ~doc)
    Term.(
      const run_all $ scale_arg $ only_arg $ csv_arg $ profile_arg $ trace_arg
      $ jobs_arg $ stretch_arg $ telemetry_arg)

let () = exit (Cmd.eval' cmd)

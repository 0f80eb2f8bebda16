(* Long-lived scheduler service driver: stream coflows through the
   epoch-based service loop under fault injection, then gate the run.

   Usage:  coflow_service [--process poisson|mmpp] [--mean-gap G]
           [--dwell N] [--replay PATH] [--coflows N] [--ports M]
           [--seed S] [--plan-seed S] [--epoch N] [--max-live N]
           [--deadline-factor F] [--intensity I] [--lp-deadline SECS]
           [--degrade-above N] [--p99-slo N] [--verify-replay]
           [--profile PATH] [--trace PATH] [--telemetry [PATH]]

   Exit status: 0 when every gate passes, 1 when any gate fails (audit
   violation, undrained live set, live-ceiling breach, SLO miss, replay
   divergence), 123 on an unreadable or malformed --replay trace, 124 on
   CLI misuse. *)

open Cmdliner

let positive_int ~what =
  let parse s =
    match int_of_string_opt s with
    | Some v when v > 0 -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "%s must be positive" what))
    | None -> Error (`Msg (Printf.sprintf "invalid %s %S" what s))
  in
  Arg.conv (parse, Format.pp_print_int)

let process_conv =
  let parse = function
    | "poisson" -> Ok `Poisson
    | "mmpp" -> Ok `Mmpp
    | s -> Error (`Msg (Printf.sprintf "unknown process %S" s))
  in
  let print ppf p =
    Format.pp_print_string ppf
      (match p with `Poisson -> "poisson" | `Mmpp -> "mmpp")
  in
  Arg.conv (parse, print)

(* A malformed replay trace is reported by name, not as an uncaught
   exception. *)
let load_replay = function
  | None -> Ok None
  | Some path -> (
    try Ok (Some (Workload.Trace.load path))
    with Failure msg | Sys_error msg ->
      Error (Printf.sprintf "%s: %s" path msg))

let ( let* ) = Result.bind

let run process mean_gap dwell replay coflows ports seed plan_seed epoch
    max_live deadline_factor intensity lp_deadline degrade_above p99_slo
    verify_replay profile trace telemetry =
  let* replay = load_replay replay in
  if profile <> None || trace <> None then begin
    Obs.Events.set_enabled true;
    Obs.Histogram.set_enabled true
  end;
  if trace <> None then Obs.Trace.set_enabled true;
  let process =
    match replay with
    | Some inst -> Service.Arrivals.Replay inst
    | None -> (
      match process with
      | `Poisson -> Service.Arrivals.Poisson { mean_gap }
      | `Mmpp ->
        Service.Arrivals.Mmpp
          { mean_gaps = [| mean_gap; mean_gap /. 4.0 |]; mean_dwell = dwell })
  in
  let params =
    match process with
    | Service.Arrivals.Replay _ -> None
    | _ -> Some (Workload.Fb_like.default_params ~ports ~coflows:0)
  in
  let cfg =
    { Service.Soak.default_config with
      process;
      params;
      coflows;
      seed;
      plan_seed;
      loop =
        { Service.Epoch_loop.default_config with
          epoch_length = epoch;
          admission =
            { Service.Admission.default_config with
              max_live;
              deadline_factor;
            };
          faults = Service.Epoch_loop.Seeded intensity;
          lp_deadline = (if lp_deadline > 0.0 then Some lp_deadline else None);
          degrade_live_above = degrade_above;
        };
      wait_p99_slo = (if p99_slo > 0 then Some p99_slo else None);
    }
  in
  Format.printf "soak: %s arrivals, %d coflows, %d ports, intensity %.2f@."
    (Service.Arrivals.process_name cfg.Service.Soak.process)
    coflows
    (Service.Soak.ports cfg)
    intensity;
  let telem =
    Option.map
      (fun base ->
        Service.Telemetry.create
          ~config:
            { Service.Telemetry.default_config with
              Service.Telemetry.path = Some base
            }
          ())
      telemetry
  in
  let report =
    Service.Soak.run ~verify_replay
      ?observer:(Option.map Service.Telemetry.observer telem)
      cfg
  in
  (match (telem, telemetry) with
  | Some t, Some base ->
    Service.Telemetry.finish t;
    Format.printf
      "(telemetry: %d epochs -> %s.jsonl, %s.prom, %s.alerts.json; %d alert \
       transitions)@."
      (Service.Telemetry.epochs t)
      base base base
      (List.length (Service.Slo.transitions (Service.Telemetry.slo t)))
  | _ -> ());
  Format.printf "%a@." Service.Soak.pp_report report;
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
  Ok (if Service.Soak.failed report = [] then 0 else 1)

let process_arg =
  Arg.(
    value
    & opt process_conv `Poisson
    & info [ "process" ] ~docv:"KIND" ~doc:"poisson | mmpp")

let mean_gap_arg =
  Arg.(
    value & opt float 48.0
    & info [ "mean-gap" ] ~docv:"G"
        ~doc:"Mean inter-arrival gap in slots (mmpp burst phase uses G/4)")

let dwell_arg =
  Arg.(
    value
    & opt (positive_int ~what:"dwell") 32
    & info [ "dwell" ] ~docv:"N" ~doc:"Mean mmpp phase dwell, arrivals")

let replay_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "replay" ] ~docv:"PATH"
        ~doc:"Replay a recorded trace instead of generating arrivals")

let coflows_arg =
  Arg.(
    value
    & opt (positive_int ~what:"coflows") 2000
    & info [ "coflows" ] ~docv:"N" ~doc:"Arrivals to stream through")

let ports_arg =
  Arg.(
    value
    & opt (positive_int ~what:"ports") 8
    & info [ "ports" ] ~docv:"M" ~doc:"Fabric ports (generative streams)")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"S" ~doc:"Arrival seed")

let plan_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "plan-seed" ] ~docv:"S" ~doc:"Fault-plan seed")

let epoch_arg =
  Arg.(
    value
    & opt (positive_int ~what:"epoch") 64
    & info [ "epoch" ] ~docv:"N" ~doc:"Epoch length, slots")

let max_live_arg =
  Arg.(
    value
    & opt (positive_int ~what:"max-live") 64
    & info [ "max-live" ] ~docv:"N" ~doc:"Admission live-set bound")

let deadline_factor_arg =
  Arg.(
    value & opt float 8.0
    & info [ "deadline-factor" ] ~docv:"F"
        ~doc:"SLO deadline = F x isolation bound (0 disables deadlines)")

let intensity_arg =
  Arg.(
    value & opt float 1.0
    & info [ "intensity" ] ~docv:"I" ~doc:"Fault-plan intensity (0 = none)")

let lp_deadline_arg =
  Arg.(
    value & opt float 0.0
    & info [ "lp-deadline" ] ~docv:"SECS"
        ~doc:
          "Wall-clock LP budget per epoch; 0 (default) = pivot budget only, \
           which keeps the run replay-deterministic")

let degrade_above_arg =
  Arg.(
    value
    & opt (positive_int ~what:"degrade-above") 48
    & info [ "degrade-above" ] ~docv:"N"
        ~doc:"Skip the LP tier while more than N coflows are live")

let p99_slo_arg =
  Arg.(
    value & opt int 512
    & info [ "p99-slo" ] ~docv:"N"
        ~doc:"Fail unless wait p99 <= N slots (0 disables the gate)")

let verify_replay_arg =
  Arg.(
    value & flag
    & info [ "verify-replay" ]
        ~doc:"Re-run with the same seeds and fail on fingerprint divergence")

let profile_arg =
  Arg.(
    value
    & opt ~vopt:(Some "PROFILE.json") (some string) None
    & info [ "profile" ] ~docv:"PATH"
        ~doc:"Write the observability profile to PATH")

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "TRACE.json") (some string) None
    & info [ "trace" ] ~docv:"PATH"
        ~doc:"Write a Chrome-trace flight-recorder trace to PATH")

let telemetry_arg =
  Arg.(
    value
    & opt ~vopt:(Some "TELEMETRY") (some string) None
    & info [ "telemetry" ] ~docv:"PATH"
        ~doc:
          "Stream live telemetry while the soak runs: per-epoch JSONL \
           snapshots to PATH.jsonl (tail it to watch the run), a \
           Prometheus text exposition atomically refreshed at PATH.prom, \
           and the SLO alert timeline at PATH.alerts.json; defaults to \
           TELEMETRY when PATH is omitted")

let cmd =
  let doc = "Soak the long-lived coflow scheduler service under faults" in
  Cmd.v
    (Cmd.info "coflow-service" ~doc)
    Term.(
      const run $ process_arg $ mean_gap_arg $ dwell_arg $ replay_arg
      $ coflows_arg $ ports_arg $ seed_arg $ plan_seed_arg $ epoch_arg
      $ max_live_arg $ deadline_factor_arg $ intensity_arg $ lp_deadline_arg
      $ degrade_above_arg $ p99_slo_arg $ verify_replay_arg $ profile_arg
      $ trace_arg $ telemetry_arg)

let () = exit (Cmd.eval_result' cmd)

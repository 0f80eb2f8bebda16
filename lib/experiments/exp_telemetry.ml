open Service
open Faults

type window = {
  w_from : int;
  w_until : int;
  w_fault : string;
  w_rule : string;
}

(* Epochs are 64 slots; the stream below keeps the live set busy well past
   epoch 50, so every window lands in executed epochs. *)
let windows =
  [ { w_from = 8;
      w_until = 9;
      w_fault = "solver outage (LP tier)";
      w_rule = "degradation";
    };
    { w_from = 20;
      w_until = 20;
      w_fault = "straggler x4 on a live coflow";
      w_rule = "demand_surplus";
    };
    { w_from = 32;
      w_until = 34;
      w_fault = "core degraded to capacity 1";
      w_rule = "fabric_stall";
    };
    { w_from = 46;
      w_until = 47;
      w_fault = "solver outage (full stack)";
      w_rule = "degradation";
    };
  ]

let epoch_len = 64

let script ~epoch ~coflows =
  ignore coflows;
  if epoch >= 8 && epoch <= 9 then
    Fault_plan.make [ Fault_plan.Solver_outage { from_ = 0; until = 1; full = false } ]
  else if epoch = 20 then
    Fault_plan.make [ Fault_plan.Straggler { coflow = 0; at = 0; factor = 4 } ]
  else if epoch >= 32 && epoch <= 34 then
    Fault_plan.make
      [ Fault_plan.Core_degraded { from_ = 0; until = epoch_len; capacity = 1 } ]
  else if epoch >= 46 && epoch <= 47 then
    Fault_plan.make [ Fault_plan.Solver_outage { from_ = 0; until = 1; full = true } ]
  else Fault_plan.empty

(* The stream is pinned, not Config-scaled: the windows sit at fixed
   epochs, so the load surrounding them is part of the experiment. *)
let soak_cfg ~fault =
  { Soak.default_config with
    Soak.process = Arrivals.Poisson { mean_gap = 10.0 };
    coflows = 500;
    seed = 7;
    plan_seed = 0;
    loop =
      { Epoch_loop.default_config with
        Epoch_loop.epoch_length = epoch_len;
        lp_deadline = None;
        (* the control leg must stay alert-free: no SLO-pressure
           degradation, no deadline rejections *)
        degrade_live_above = 128;
        admission =
          { Admission.default_config with
            Admission.max_live = 96;
            deadline_factor = 0.0;
          };
        faults = (if fault then Scripted script else Seeded 0.0);
      };
    wait_p99_slo = None;
  }

let telem_config path =
  { Telemetry.default_config with Telemetry.path; wait_budget = 2048 }

type outcome = {
  window : window;
  alert_epoch : int option;
  latency : int option;
  ok : bool;
}

type result = {
  outcomes : outcome list;
  fault_transitions : int;
  control_transitions : int;
  control_watchdog : int;
  fault_fp_match : bool;
  control_fp_match : bool;
  fault_stats : Epoch_loop.stats;
  control_stats : Epoch_loop.stats;
}

let observed_leg ~fault ~path =
  let t = Telemetry.create ~config:(telem_config path) () in
  let report = Soak.run ~observer:(Telemetry.observer t) (soak_cfg ~fault) in
  Telemetry.finish t;
  (t, report.Soak.stats)

let bare_leg ~fault = (Soak.run (soak_cfg ~fault)).Soak.stats

let match_window transitions w =
  List.find_opt
    (fun (tr : Slo.transition) ->
      String.equal tr.Slo.t_rule w.w_rule
      && tr.Slo.t_to = Slo.Firing
      && tr.Slo.t_epoch >= w.w_from
      && tr.Slo.t_epoch <= w.w_until + 2)
    transitions

let run ?telemetry (_ : Config.t) =
  let fault_path = Option.map (fun b -> b ^ "-fault") telemetry in
  let control_path = Option.map (fun b -> b ^ "-control") telemetry in
  let t_fault, fault_stats = observed_leg ~fault:true ~path:fault_path in
  let fault_bare = bare_leg ~fault:true in
  let t_ctl, control_stats = observed_leg ~fault:false ~path:control_path in
  let control_bare = bare_leg ~fault:false in
  let transitions = Slo.transitions (Telemetry.slo t_fault) in
  let outcomes =
    List.map
      (fun w ->
        match match_window transitions w with
        | None -> { window = w; alert_epoch = None; latency = None; ok = false }
        | Some tr ->
          let lat = tr.Slo.t_epoch - w.w_from in
          { window = w;
            alert_epoch = Some tr.Slo.t_epoch;
            latency = Some lat;
            ok = lat <= 2;
          })
      windows
  in
  { outcomes;
    fault_transitions = List.length transitions;
    control_transitions =
      List.length (Slo.transitions (Telemetry.slo t_ctl));
    control_watchdog = List.length (Watchdog.alerts (Telemetry.watchdog t_ctl));
    fault_fp_match =
      String.equal fault_stats.Epoch_loop.fingerprint
        fault_bare.Epoch_loop.fingerprint;
    control_fp_match =
      String.equal control_stats.Epoch_loop.fingerprint
        control_bare.Epoch_loop.fingerprint;
    fault_stats;
    control_stats;
  }

let all_pass r =
  List.for_all (fun o -> o.ok) r.outcomes
  && r.control_transitions = 0 && r.control_watchdog = 0 && r.fault_fp_match
  && r.control_fp_match

let render r =
  let b = Buffer.create 2048 in
  Buffer.add_string b
    "E20. Live telemetry: injected fault windows vs raised alerts\n";
  Buffer.add_string b
    "   (same seeded stream, four legs: faults/control x observed/bare)\n\n";
  Buffer.add_string b
    "   window   fault                          expected rule   alert  \
     latency  ok\n";
  List.iter
    (fun o ->
      Buffer.add_string b
        (Printf.sprintf "   %3d-%-3d  %-30s %-15s %5s  %7s  %s\n" o.window.w_from
           o.window.w_until o.window.w_fault o.window.w_rule
           (match o.alert_epoch with
           | Some e -> string_of_int e
           | None -> "-")
           (match o.latency with Some l -> string_of_int l | None -> "-")
           (if o.ok then "PASS" else "FAIL")))
    r.outcomes;
  Buffer.add_string b
    (Printf.sprintf
       "\n   fault leg: %d transitions, %d epochs, fingerprint %s telemetry\n"
       r.fault_transitions r.fault_stats.Epoch_loop.epochs
       (if r.fault_fp_match then "unchanged by" else "PERTURBED by"));
  Buffer.add_string b
    (Printf.sprintf
       "   control leg: %d transitions, %d watchdog alerts (want 0/0), \
        fingerprint %s telemetry\n"
       r.control_transitions r.control_watchdog
       (if r.control_fp_match then "unchanged by" else "PERTURBED by"));
  Buffer.add_string b
    (Printf.sprintf "\n   all checks: %s\n"
       (if all_pass r then "PASS" else "FAIL"));
  Buffer.contents b

let json r =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"windows\": [";
  List.iteri
    (fun i o ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "\n    {\"from\":%d,\"until\":%d,\"fault\":\"%s\",\"rule\":\"%s\",\
            \"alert_epoch\":%s,\"latency\":%s,\"pass\":%b}"
           o.window.w_from o.window.w_until
           (Obs.Json.escape o.window.w_fault)
           (Obs.Json.escape o.window.w_rule)
           (match o.alert_epoch with
           | Some e -> string_of_int e
           | None -> "null")
           (match o.latency with Some l -> string_of_int l | None -> "null")
           o.ok))
    r.outcomes;
  Buffer.add_string b
    (Printf.sprintf
       "\n  ],\n  \"fault_transitions\": %d,\n  \"control_transitions\": %d,\n\
       \  \"control_watchdog\": %d,\n  \"fault_fingerprint_match\": %b,\n\
       \  \"control_fingerprint_match\": %b,\n  \"pass\": %b\n}\n"
       r.fault_transitions r.control_transitions r.control_watchdog
       r.fault_fp_match r.control_fp_match (all_pass r));
  Buffer.contents b

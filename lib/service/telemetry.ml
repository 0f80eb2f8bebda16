type config = {
  path : string option;
  window : int;
  rules : Slo.rule list;
  watchdog : Watchdog.config;
  wait_budget : int;
  reject_budget : float;
  twct_factor : float;
  stall_min_spread : int;
  stall_min_live : int;
  stall_units_per_slot : float;
}

let default_rules =
  [ Slo.rule ~short_window:2 ~long_window:4 ~warn_burn:0.75 ~fire_burn:1.0
      ~clear_after:3 "wait_p99";
    Slo.rule ~short_window:1 ~long_window:1 ~warn_burn:0.5 ~fire_burn:0.5
      ~clear_after:2 "audit_violation";
    Slo.rule ~short_window:2 ~long_window:4 ~warn_burn:1.0 ~fire_burn:2.0
      ~clear_after:3 "rejection_rate";
    Slo.rule ~short_window:2 ~long_window:4 ~warn_burn:0.75 ~fire_burn:1.0
      ~clear_after:3 "twct_vs_bound";
    Slo.rule ~short_window:1 ~long_window:2 ~warn_burn:0.25 ~fire_burn:0.5
      ~clear_after:2 "degradation";
    Slo.rule ~short_window:1 ~long_window:1 ~warn_burn:0.5 ~fire_burn:0.5
      ~clear_after:2 "demand_surplus";
    Slo.rule ~short_window:2 ~long_window:2 ~warn_burn:0.5 ~fire_burn:0.5
      ~clear_after:2 "fabric_stall";
  ]

let default_config =
  { path = None;
    window = 8;
    rules = default_rules;
    watchdog = Watchdog.default_config;
    wait_budget = 512;
    reject_budget = 0.10;
    twct_factor = 4.0;
    stall_min_spread = 4;
    stall_min_live = 4;
    stall_units_per_slot = 1.05;
  }

type t = {
  cfg : config;
  snap : Obs.Snapshot.t;
  slo : Slo.t;
  wd : Watchdog.t;
  buf : Buffer.t;  (* in-memory stream when cfg.path = None *)
  oc : out_channel option;
  mutable prev : Epoch_loop.epoch_view option;
  mutable n_views : int;
  mutable finished : bool;
}

let create ?(config = default_config) () =
  let oc =
    Option.map (fun base -> open_out (base ^ ".jsonl")) config.path
  in
  let buf = Buffer.create 4096 in
  let sink =
    match oc with
    | Some oc ->
      fun line ->
        output_string oc line;
        (* write-through: a tailing reader sees each epoch as it lands *)
        flush oc
    | None -> Buffer.add_string buf
  in
  { cfg = config;
    snap = Obs.Snapshot.create ~window:config.window ~sink ();
    slo = Slo.create config.rules;
    wd = Watchdog.create ~config:config.watchdog ();
    buf;
    oc;
    prev = None;
    n_views = 0;
    finished = false;
  }

let burns t (v : Epoch_loop.epoch_view) =
  let open Epoch_loop in
  let s = v.ev_stats in
  let delta f = f s - match t.prev with None -> 0 | Some p -> f p.ev_stats in
  let d_arrived = delta (fun x -> x.arrived)
  and d_rejected = delta (fun x -> x.rejected_queue + x.rejected_deadline)
  and d_degraded = delta (fun x -> x.degradations) in
  let rejection_rate =
    if d_arrived <= 0 then 0.0
    else float_of_int d_rejected /. float_of_int d_arrived
  in
  let units_per_slot =
    if v.ev_slots <= 0 then infinity
    else float_of_int v.ev_units_served /. float_of_int v.ev_slots
  in
  [ ("wait_p99", float_of_int s.wait_p99 /. float_of_int t.cfg.wait_budget);
    ("audit_violation", if s.audit_violation <> None then 1.0 else 0.0);
    ("rejection_rate", rejection_rate /. t.cfg.reject_budget);
    ( "twct_vs_bound",
      if s.bound_sum > 0.0 then s.twct /. (t.cfg.twct_factor *. s.bound_sum)
      else 0.0 );
    ("degradation", float_of_int d_degraded);
    ("demand_surplus", if v.ev_demand_surplus > 0 then 1.0 else 0.0);
    ( "fabric_stall",
      (* low throughput is only a stall when the residual demand could
         have used more of the fabric: spread-1 demand drains at one
         unit per slot optimally, and with only a couple of live coflows
         the sigma-ordered schedule legitimately runs at the head
         coflow's parallelism rather than the union spread *)
      if
        v.ev_live_after >= t.cfg.stall_min_live
        && v.ev_port_spread >= t.cfg.stall_min_spread
        && units_per_slot < t.cfg.stall_units_per_slot
      then 1.0
      else 0.0 );
  ]

let observer t (v : Epoch_loop.epoch_view) =
  let open Epoch_loop in
  ignore (Slo.step t.slo ~epoch:v.ev_epoch (burns t v) : Slo.transition list);
  ignore
    (Watchdog.beat t.wd
       { Watchdog.b_epoch = v.ev_epoch;
         b_live = v.ev_live_after;
         b_backlog = v.ev_backlog;
         b_completed = v.ev_stats.completed;
         b_tier = v.ev_tier;
         b_decision_fingerprint = v.ev_decision_fingerprint;
       }
      : Watchdog.alert list);
  (* the frame is recorded after the SLO / watchdog steps so it already
     carries this epoch's slo.* and watchdog.* counter values *)
  ignore (Obs.Snapshot.record t.snap ~epoch:v.ev_epoch : Obs.Snapshot.frame);
  Option.iter (fun base -> Obs.Prom.write (base ^ ".prom")) t.cfg.path;
  t.prev <- Some v;
  t.n_views <- t.n_views + 1

let alerts_json t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\"transitions\":";
  Buffer.add_string buf (Slo.to_json (Slo.transitions t.slo));
  (* Slo.to_json ends with a newline; splice the watchdog list in *)
  let s = Buffer.contents buf in
  let buf2 = Buffer.create (String.length s + 1024) in
  Buffer.add_string buf2 (String.trim s);
  Buffer.add_string buf2 ",\n \"watchdog\":[";
  List.iteri
    (fun i (a : Watchdog.alert) ->
      if i > 0 then Buffer.add_string buf2 ",";
      Buffer.add_string buf2
        (Printf.sprintf "\n  {\"epoch\":%d,\"kind\":\"%s\",\"detail\":\"%s\"}"
           a.Watchdog.a_epoch a.Watchdog.a_kind
           (Obs.Json.escape a.Watchdog.a_detail)))
    (Watchdog.alerts t.wd);
  Buffer.add_string buf2 "\n]}\n";
  Buffer.contents buf2

let finish t =
  if not t.finished then begin
    t.finished <- true;
    (match t.oc with
    | Some oc ->
      flush oc;
      close_out oc
    | None -> ());
    match t.cfg.path with
    | None -> ()
    | Some base ->
      Obs.Prom.write (base ^ ".prom");
      let oc = open_out (base ^ ".alerts.json") in
      output_string oc (alerts_json t);
      close_out oc
  end

(* One notch while the rule burns, zero otherwise.  The hook reads the
   CURRENT alert state every time the loop consults it, so the bar is
   raised on the first epoch after the rule fires and restored on the
   first epoch after it resolves — no extra bookkeeping, no way for the
   reaction to stick. *)
let degrade_notch t () =
  match Slo.state t.slo "wait_p99" with Slo.Firing -> 1 | _ -> 0

let slo t = t.slo

let watchdog t = t.wd

let epochs t = t.n_views

let stream t = Buffer.contents t.buf

(* Tests for the live telemetry layer: the Slo burn-rate state machine,
   the Watchdog, registry snapshots / Prometheus exposition in lib/obs,
   and the composed Telemetry observer over the service loop. *)

open Service

let check_int = Alcotest.(check int)

(* ---------- Slo: burn-rate alert state machine ---------- *)

let one_rule ?(short_window = 2) ?(long_window = 4) ?(warn_burn = 1.0)
    ?(fire_burn = 2.0) ?(clear_after = 3) () =
  Slo.rule ~short_window ~long_window ~warn_burn ~fire_burn ~clear_after "r"

(* drive a single-rule machine through a burn series, returning the
   timeline *)
let drive rules series =
  let t = Slo.create rules in
  List.iteri (fun i v -> ignore (Slo.step t ~epoch:i [ ("r", v) ])) series;
  (t, Slo.transitions t)

let edges ts = List.map (fun tr -> (tr.Slo.t_from, tr.Slo.t_to)) ts

let test_slo_escalation () =
  (* warm-but-not-firing values warn; sustained fire-level values fire *)
  let _, ts = drive [ one_rule () ] [ 1.2; 1.2; 3.0; 3.0; 3.0; 3.0 ] in
  Alcotest.(check bool)
    "warning then firing" true
    (match edges ts with
    | (Slo.Ok, Slo.Warning) :: (Slo.Warning, Slo.Firing) :: _ -> true
    | _ -> false)

let test_slo_short_window_gates () =
  (* one hot epoch in a cold stream: the long window stays cold, so no
     transition at all — the multi-window logic suppresses blips *)
  let _, ts = drive [ one_rule () ] [ 0.0; 0.0; 0.0; 3.0; 0.0; 0.0 ] in
  check_int "no transitions on a blip" 0 (List.length ts)

let test_slo_hysteresis_holds_firing () =
  (* once firing, dips below warn shorter than clear_after do not clear;
     the alert stays open (no Firing -> anything transition) *)
  let t, ts =
    drive
      [ one_rule ~short_window:1 ~long_window:1 ~clear_after:3 () ]
      [ 3.0; 3.0; 0.0; 0.0; 3.0; 0.0; 0.0; 3.0 ]
  in
  Alcotest.(check bool)
    "single firing edge" true
    (edges ts = [ (Slo.Ok, Slo.Firing) ]);
  Alcotest.(check bool) "still firing" true (Slo.state t "r" = Slo.Firing);
  Alcotest.(check (list string)) "listed as firing" [ "r" ] (Slo.firing t)

let test_slo_resolve_and_reenter () =
  let series =
    [ 3.0; 3.0; (* fire *) 0.0; 0.0; 0.0; (* 3 cool -> resolved *) 0.0;
      (* resolved -> ok *) 3.0 (* hot again: ok -> firing (fresh episode) *)
    ]
  in
  let _, ts =
    drive [ one_rule ~short_window:1 ~long_window:1 ~clear_after:3 () ] series
  in
  Alcotest.(check bool)
    "fire, resolve, settle, re-fire" true
    (edges ts
    = [ (Slo.Ok, Slo.Firing);
        (Slo.Firing, Slo.Resolved);
        (Slo.Resolved, Slo.Ok);
        (Slo.Ok, Slo.Firing);
      ])

let test_slo_resolved_reentry_direct () =
  (* going hot during the Resolved acknowledgement epoch re-enters
     immediately without passing through Ok *)
  let _, ts =
    drive
      [ one_rule ~short_window:1 ~long_window:1 ~clear_after:2 () ]
      [ 3.0; 0.0; 0.0; (* resolved *) 3.0 (* re-enter from resolved *) ]
  in
  Alcotest.(check bool)
    "reentry from resolved" true
    (edges ts
    = [ (Slo.Ok, Slo.Firing);
        (Slo.Firing, Slo.Resolved);
        (Slo.Resolved, Slo.Firing);
      ])

let test_slo_flap_suppression () =
  (* a signal oscillating every epoch between fire-hot and cold must
     produce exactly one alert episode, not one per oscillation *)
  let series = List.concat (List.init 10 (fun _ -> [ 3.0; 0.0 ])) in
  let _, ts =
    drive [ one_rule ~short_window:1 ~long_window:1 ~clear_after:3 () ] series
  in
  check_int "one episode" 1 (List.length ts);
  Alcotest.(check bool)
    "the one edge is the fire" true
    (edges ts = [ (Slo.Ok, Slo.Firing) ])

let test_slo_warning_clears () =
  let _, ts =
    drive
      [ one_rule ~short_window:1 ~long_window:1 ~clear_after:2 () ]
      [ 1.2; 1.2; 0.0; 0.0 ]
  in
  Alcotest.(check bool)
    "warn then back to ok" true
    (edges ts = [ (Slo.Ok, Slo.Warning); (Slo.Warning, Slo.Ok) ])

let test_slo_missing_signal_is_cool () =
  let t = Slo.create [ one_rule ~short_window:1 ~long_window:1 () ] in
  ignore (Slo.step t ~epoch:0 [ ("r", 3.0) ]);
  (* absent sample reads as 0.0 and counts toward clearing *)
  ignore (Slo.step t ~epoch:1 []);
  ignore (Slo.step t ~epoch:2 []);
  ignore (Slo.step t ~epoch:3 []);
  Alcotest.(check bool) "resolved via absent samples" true
    (Slo.state t "r" = Slo.Resolved)

let test_slo_validation () =
  let bad f = Alcotest.check_raises "rejected" (Invalid_argument "") f in
  let invalid f =
    try
      f ();
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  ignore bad;
  invalid (fun () -> ignore (Slo.create [ one_rule ~short_window:0 () ]));
  invalid (fun () ->
      ignore (Slo.create [ one_rule ~short_window:4 ~long_window:2 () ]));
  invalid (fun () ->
      ignore (Slo.create [ one_rule ~warn_burn:2.0 ~fire_burn:1.0 () ]));
  invalid (fun () -> ignore (Slo.create [ one_rule ~clear_after:0 () ]));
  invalid (fun () -> ignore (Slo.create [ one_rule (); one_rule () ]));
  try ignore (Slo.state (Slo.create [ one_rule () ]) "nope");
    Alcotest.fail "expected Not_found"
  with Not_found -> ()

(* ---------- Watchdog ---------- *)

let beat_at ?(live = 3) ?(backlog = 100) ?(completed = 5) ?(tier = Core.Resilient.Lp)
    ?(fp = "aaaa") epoch =
  { Watchdog.b_epoch = epoch;
    b_live = live;
    b_backlog = backlog;
    b_completed = completed;
    b_tier = tier;
    b_decision_fingerprint = fp;
  }

let test_watchdog_stall_once_per_episode () =
  let cfg = { Watchdog.stall_epochs = 3; flap_window = 8; flap_limit = 4 } in
  let wd = Watchdog.create ~config:cfg () in
  (* identical no-progress beats: alert at the stall_epochs-th comparison,
     then silence while the episode persists *)
  for e = 0 to 9 do
    ignore (Watchdog.beat wd (beat_at e))
  done;
  check_int "one stall alert" 1 (List.length (Watchdog.alerts wd));
  let a = List.hd (Watchdog.alerts wd) in
  Alcotest.(check string) "kind" "stall" a.Watchdog.a_kind;
  check_int "raised at the 3rd stalled comparison" 3 a.Watchdog.a_epoch;
  (* progress (a completion) closes the episode ... *)
  ignore (Watchdog.beat wd (beat_at ~completed:6 10));
  (* ... and a fresh stall opens a new one *)
  for e = 11 to 14 do
    ignore (Watchdog.beat wd (beat_at ~completed:6 e))
  done;
  check_int "second episode alerts again" 2 (List.length (Watchdog.alerts wd));
  check_int "beats counted" 15 (Watchdog.beats wd)

let test_watchdog_no_stall_on_progress () =
  let cfg = { Watchdog.stall_epochs = 2; flap_window = 8; flap_limit = 4 } in
  let wd = Watchdog.create ~config:cfg () in
  (* draining backlog counts as progress even with zero completions *)
  for e = 0 to 9 do
    ignore (Watchdog.beat wd (beat_at ~backlog:(1000 - e) e))
  done;
  check_int "no alerts" 0 (List.length (Watchdog.alerts wd));
  (* an empty live set is idle, not stalled *)
  let wd = Watchdog.create ~config:cfg () in
  for e = 0 to 9 do
    ignore (Watchdog.beat wd (beat_at ~live:0 e))
  done;
  check_int "idle is not a stall" 0 (List.length (Watchdog.alerts wd))

let test_watchdog_flap () =
  let cfg = { Watchdog.stall_epochs = 99; flap_window = 6; flap_limit = 2 } in
  let wd = Watchdog.create ~config:cfg () in
  let tiers = [| Core.Resilient.Lp; Core.Resilient.Rho |] in
  (* alternate tiers every beat: 3 changes inside a 6-beat window trips
     the limit of 2; the alert is raised once, not per extra change *)
  for e = 0 to 11 do
    ignore (Watchdog.beat wd (beat_at ~completed:e ~tier:tiers.(e mod 2) e))
  done;
  let flaps =
    List.filter (fun a -> a.Watchdog.a_kind = "flap") (Watchdog.alerts wd)
  in
  check_int "one flap alert while flapping persists" 1 (List.length flaps);
  (* settle on one tier long enough to flush the window, then flap again *)
  for e = 12 to 19 do
    ignore (Watchdog.beat wd (beat_at ~completed:e ~tier:Core.Resilient.Lp e))
  done;
  for e = 20 to 27 do
    ignore (Watchdog.beat wd (beat_at ~completed:e ~tier:tiers.(e mod 2) e))
  done;
  let flaps =
    List.filter (fun a -> a.Watchdog.a_kind = "flap") (Watchdog.alerts wd)
  in
  check_int "re-alerts after settling" 2 (List.length flaps)

(* ---------- Obs.Snapshot / Obs.Prom ---------- *)

let test_snapshot_deltas_and_window () =
  let c = Obs.Counter.make "test.snap.delta" in
  let lines = Buffer.create 256 in
  let t = Obs.Snapshot.create ~window:2 ~sink:(Buffer.add_string lines) () in
  let get name frame =
    Option.value ~default:min_int (List.assoc_opt name frame)
  in
  Obs.Counter.incr c ~by:5;
  let f1 = Obs.Snapshot.record t ~epoch:0 in
  Obs.Counter.incr c ~by:3;
  let f2 = Obs.Snapshot.record t ~epoch:1 in
  Obs.Counter.incr c ~by:2;
  let f3 = Obs.Snapshot.record t ~epoch:2 in
  check_int "cumulative" 10 (get "test.snap.delta" f3.Obs.Snapshot.f_counters);
  check_int "delta since last" 2 (get "test.snap.delta" f3.Obs.Snapshot.f_deltas);
  (* window=2 at frame 3 covers frames 2..3: 3 + 2 *)
  check_int "rolling window" 5 (get "test.snap.delta" f3.Obs.Snapshot.f_window);
  (* young stream: window = cumulative *)
  check_int "window while filling" 8
    (get "test.snap.delta" f2.Obs.Snapshot.f_window);
  ignore f1;
  check_int "frames" 3 (Obs.Snapshot.frames t);
  (* every line is one parseable JSON object keyed on a monotone epoch *)
  let parsed =
    Buffer.contents lines |> String.trim |> String.split_on_char '\n'
    |> List.map Obs.Json.parse_exn
  in
  check_int "three lines" 3 (List.length parsed);
  List.iteri
    (fun i j ->
      match Option.bind (Obs.Json.member "epoch" j) Obs.Json.to_float with
      | Some e -> check_int "epoch key" i (int_of_float e)
      | None -> Alcotest.fail "missing epoch")
    parsed

let test_snapshot_monotone_epochs () =
  let t = Obs.Snapshot.create () in
  ignore (Obs.Snapshot.record t ~epoch:4);
  try
    ignore (Obs.Snapshot.record t ~epoch:4);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_snapshot_excludes_wall_time () =
  let g = Obs.Counter.Gauge.make "test.snap.rate_per_sec" in
  Obs.Counter.Gauge.set g 5.0;
  let t = Obs.Snapshot.create () in
  let f = Obs.Snapshot.record t ~epoch:0 in
  Alcotest.(check bool) "time-suffixed gauge excluded" true
    (List.assoc_opt "test.snap.rate_per_sec" f.Obs.Snapshot.f_gauges = None);
  let t = Obs.Snapshot.create ~include_time:true () in
  let f = Obs.Snapshot.record t ~epoch:0 in
  Alcotest.(check bool) "included on demand" true
    (List.assoc_opt "test.snap.rate_per_sec" f.Obs.Snapshot.f_gauges <> None)

let test_prom_exposition () =
  Alcotest.(check string)
    "name sanitized" "coflow_service_wait_slots"
    (Obs.Prom.metric_name "service.wait_slots");
  let c = Obs.Counter.make "test.prom.counter" in
  Obs.Counter.incr c ~by:7;
  let doc = Obs.Prom.render () in
  Alcotest.(check bool) "typed counter line" true
    (Astring.String.is_infix
       ~affix:"# TYPE coflow_test_prom_counter_total counter" doc);
  let tmp = Filename.temp_file "prom" ".prom" in
  Obs.Prom.write tmp;
  let ic = open_in tmp in
  let len = in_channel_length ic in
  let written = really_input_string ic len in
  close_in ic;
  Sys.remove tmp;
  Alcotest.(check bool) "written atomically, same content modulo updates"
    true
    (Astring.String.is_infix ~affix:"coflow_test_prom_counter_total 7" written)

let test_profile_diff_json () =
  let doc =
    Obs.Json.parse_exn
      {|{"clock":"monotonic","spans":[],"counters":{"lp.pivots":100},
         "gauges":{},"histograms":{},"slot_events":0,"slot_events_dropped":0}|}
  in
  let doc2 =
    Obs.Json.parse_exn
      {|{"clock":"monotonic","spans":[],"counters":{"lp.pivots":150},
         "gauges":{},"histograms":{},"slot_events":0,"slot_events_dropped":0}|}
  in
  let report =
    Obs.Profile_diff.diff ~threshold:10.0 ~old_profile:doc ~new_profile:doc2 ()
  in
  let j = Obs.Json.parse_exn (Obs.Profile_diff.to_json report) in
  let num name =
    match Option.bind (Obs.Json.member name j) Obs.Json.to_float with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" name
  in
  Alcotest.(check (float 0.001)) "regressions counted" 1.0 (num "regressions");
  (match Obs.Json.member "ok" j with
  | Some (Obs.Json.Bool false) -> ()
  | _ -> Alcotest.fail "verdict should be ok=false");
  match Option.bind (Obs.Json.member "rows" j) Obs.Json.to_list with
  | Some (_ :: _) -> ()
  | _ -> Alcotest.fail "rows missing"

(* ---------- Telemetry over the service loop ---------- *)

let quiet_loop =
  { Epoch_loop.default_config with
    Epoch_loop.lp_deadline = None;
    degrade_live_above = 128;
    admission =
      { Admission.default_config with
        Admission.max_live = 96;
        deadline_factor = 0.0;
      };
  }

let soak_cfg ?(faults = Epoch_loop.Seeded 0.0) ~seed ~coflows () =
  { Soak.default_config with
    Soak.process = Arrivals.Poisson { mean_gap = 12.0 };
    coflows;
    seed;
    plan_seed = 0;
    loop = { quiet_loop with Epoch_loop.faults };
    wait_p99_slo = None;
  }

let telem ?path () =
  Telemetry.create
    ~config:
      { Telemetry.default_config with Telemetry.path; wait_budget = 2048 }
    ()

let test_observer_does_not_perturb () =
  let bare = Soak.run (soak_cfg ~seed:3 ~coflows:120 ()) in
  let t = telem () in
  let observed =
    Soak.run ~observer:(Telemetry.observer t) (soak_cfg ~seed:3 ~coflows:120 ())
  in
  Telemetry.finish t;
  Alcotest.(check string) "fingerprint identical"
    bare.Soak.stats.Epoch_loop.fingerprint
    observed.Soak.stats.Epoch_loop.fingerprint;
  check_int "one view per epoch" observed.Soak.stats.Epoch_loop.epochs
    (Telemetry.epochs t)

let test_scripted_fault_raises_alert () =
  let script ~epoch ~coflows =
    ignore coflows;
    if epoch = 3 then
      Faults.Fault_plan.make
        [ Faults.Fault_plan.Straggler { coflow = 0; at = 0; factor = 4 } ]
    else Faults.Fault_plan.empty
  in
  let base = Filename.temp_file "telem" "" in
  let t = telem ~path:base () in
  ignore
    (Soak.run ~observer:(Telemetry.observer t)
       (soak_cfg ~faults:(Epoch_loop.Scripted script) ~seed:3 ~coflows:120
          ()));
  Telemetry.finish t;
  let fired =
    List.exists
      (fun tr ->
        tr.Slo.t_rule = "demand_surplus"
        && tr.Slo.t_to = Slo.Firing && tr.Slo.t_epoch = 3)
      (Slo.transitions (Telemetry.slo t))
  in
  Alcotest.(check bool) "demand_surplus fired at the scripted epoch" true fired;
  (* the artifacts landed and the timeline round-trips as JSON *)
  List.iter
    (fun ext ->
      Alcotest.(check bool) (ext ^ " written") true
        (Sys.file_exists (base ^ ext)))
    [ ".jsonl"; ".prom"; ".alerts.json" ];
  let ic = open_in (base ^ ".alerts.json") in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Obs.Json.parse (String.trim doc) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "alerts.json unparseable: %s" e);
  List.iter
    (fun ext -> Sys.remove (base ^ ext))
    [ ".jsonl"; ".prom"; ".alerts.json" ];
  Sys.remove base

(* ---------- alert-driven reaction (Epoch_loop.degrade_notch) ---------- *)

(* the stats of a run that served nothing, from the loop itself *)
let no_stats =
  Epoch_loop.run Epoch_loop.default_config
    (Arrivals.create ~ports:2 ~seed:1 (Arrivals.Poisson { mean_gap = 2.0 }))
    ~coflows:0

(* a hand-built epoch view: only the wait percentile matters to the
   wait_p99 burn signal, everything else is a quiet epoch *)
let synthetic_view ~epoch ~wait_p99 =
  { Epoch_loop.ev_epoch = epoch;
    ev_start = epoch * 16;
    ev_now = (epoch + 1) * 16;
    ev_slots = 16;
    ev_tier = Core.Resilient.Lp;
    ev_live_before = 2;
    ev_live_after = 2;
    ev_backlog = 100 - epoch;
    ev_units_served = 64;
    ev_demand_surplus = 0;
    ev_port_spread = 1;
    ev_fault_events = 0;
    ev_stats =
      { no_stats with
        Epoch_loop.arrived = epoch + 2;
        admitted = epoch + 2;
        completed = epoch;
        epochs = epoch + 1;
        wait_p50 = wait_p99 / 2;
        wait_p99;
        max_live = 2;
      };
    ev_decision_fingerprint = string_of_int epoch;
  }

let test_reaction_notch_follows_alert () =
  let t = telem () in
  (* wait budget is 2048: feed hot epochs (4x budget) until the rule
     fires, then cool epochs until it resolves, checking the notch at
     each stage *)
  let notch = Telemetry.degrade_notch t in
  check_int "quiet at start" 0 (notch ());
  for e = 0 to 5 do
    Telemetry.observer t (synthetic_view ~epoch:e ~wait_p99:8192)
  done;
  Alcotest.(check bool) "rule fired" true
    (List.mem "wait_p99" (Slo.firing (Telemetry.slo t)));
  check_int "one notch while firing" 1 (notch ());
  for e = 6 to 12 do
    Telemetry.observer t (synthetic_view ~epoch:e ~wait_p99:0)
  done;
  Alcotest.(check bool) "rule resolved" true
    (List.exists
       (fun tr -> tr.Slo.t_rule = "wait_p99" && tr.Slo.t_to = Slo.Resolved)
       (Slo.transitions (Telemetry.slo t)));
  check_int "notch restored on resolve" 0 (notch ())

(* A scripted overload: a flood of arrivals against few ports, with the
   live-set bar high enough that the un-reacted loop keeps paying for
   in-epoch LP solves over the whole backlog.  With the reaction wired,
   the firing wait_p99 rule halves the bar, the loop degrades to the
   load-over-weight order (which serves light coflows first — exactly
   the order that drains first-service waits fastest), and the overload
   clears sooner.  [lp_deadline = None] keeps both runs deterministic,
   so the comparison is replay-stable. *)
let run_overload ~react =
  let tel =
    Telemetry.create
      ~config:{ Telemetry.default_config with Telemetry.wait_budget = 24 }
      ()
  in
  let cfg =
    { Epoch_loop.default_config with
      Epoch_loop.epoch_length = 16;
      lp_deadline = None;
      degrade_live_above = 16;
      degrade_notch = (if react then Some (Telemetry.degrade_notch tel) else None);
      admission =
        { Admission.default_config with
          Admission.max_live = 64;
          deadline_factor = 0.0;
        };
    }
  in
  let src =
    Arrivals.create ~random_weights:true ~ports:6 ~seed:11
      (Arrivals.Poisson { mean_gap = 0.5 })
  in
  let stats = Epoch_loop.run ~observer:(Telemetry.observer tel) cfg src ~coflows:48 in
  (stats, tel)

let test_reaction_recovers_faster () =
  let off, tel_off = run_overload ~react:false in
  let on_, tel_on = run_overload ~react:true in
  (* both runs see the same overload and the alert fires in both *)
  let fired tel =
    List.exists
      (fun tr -> tr.Slo.t_rule = "wait_p99" && tr.Slo.t_to = Slo.Firing)
      (Slo.transitions (Telemetry.slo tel))
  in
  Alcotest.(check bool) "alert fired without reaction" true (fired tel_off);
  Alcotest.(check bool) "alert fired with reaction" true (fired tel_on);
  check_int "no reaction degradations when unwired" 0
    off.Epoch_loop.reaction_degradations;
  Alcotest.(check bool) "reaction engaged" true
    (on_.Epoch_loop.reaction_degradations > 0);
  Alcotest.(check bool)
    (Printf.sprintf "overload drains in fewer slots with reaction (%d vs %d)"
       on_.Epoch_loop.slots off.Epoch_loop.slots)
    true
    (on_.Epoch_loop.slots < off.Epoch_loop.slots);
  Alcotest.(check bool)
    (Printf.sprintf "p99 wait no worse with reaction (%d vs %d)"
       on_.Epoch_loop.wait_p99 off.Epoch_loop.wait_p99)
    true
    (on_.Epoch_loop.wait_p99 <= off.Epoch_loop.wait_p99);
  (* same decisions admitted/completed either way: the reaction changes
     the serving order, not the admission policy *)
  check_int "same completions" off.Epoch_loop.completed on_.Epoch_loop.completed

(* ---------- properties ---------- *)

let seed_arb = QCheck.int_range 0 1000

let prop_stream_replay_identical =
  QCheck.Test.make ~name:"snapshot stream is replay-identical" ~count:8
    seed_arb (fun seed ->
      let run () =
        (* the stream carries cumulative process-wide counters, so each
           replay starts from a reset registry *)
        Obs.Profile.reset_all ();
        let t = telem () in
        ignore (Soak.run ~observer:(Telemetry.observer t)
                  (soak_cfg ~seed ~coflows:60 ()));
        Telemetry.finish t;
        Telemetry.stream t
      in
      let a = run () and b = run () in
      String.equal a b && String.length a > 0)

let prop_fault_free_soak_is_quiet =
  QCheck.Test.make ~name:"fault-free soak raises no alerts" ~count:8 seed_arb
    (fun seed ->
      let t = telem () in
      ignore
        (Soak.run ~observer:(Telemetry.observer t)
           (soak_cfg ~seed ~coflows:100 ()));
      Telemetry.finish t;
      Slo.transitions (Telemetry.slo t) = []
      && Watchdog.alerts (Telemetry.watchdog t) = [])

let () =
  Alcotest.run "telemetry"
    [ ( "slo",
        [ Alcotest.test_case "escalation" `Quick test_slo_escalation;
          Alcotest.test_case "short window gates" `Quick
            test_slo_short_window_gates;
          Alcotest.test_case "hysteresis holds firing" `Quick
            test_slo_hysteresis_holds_firing;
          Alcotest.test_case "resolve and reenter" `Quick
            test_slo_resolve_and_reenter;
          Alcotest.test_case "resolved reentry direct" `Quick
            test_slo_resolved_reentry_direct;
          Alcotest.test_case "flap suppression" `Quick
            test_slo_flap_suppression;
          Alcotest.test_case "warning clears" `Quick test_slo_warning_clears;
          Alcotest.test_case "missing signal is cool" `Quick
            test_slo_missing_signal_is_cool;
          Alcotest.test_case "validation" `Quick test_slo_validation;
        ] );
      ( "watchdog",
        [ Alcotest.test_case "stall once per episode" `Quick
            test_watchdog_stall_once_per_episode;
          Alcotest.test_case "no stall on progress" `Quick
            test_watchdog_no_stall_on_progress;
          Alcotest.test_case "tier flap" `Quick test_watchdog_flap;
        ] );
      ( "snapshot",
        [ Alcotest.test_case "deltas and window" `Quick
            test_snapshot_deltas_and_window;
          Alcotest.test_case "monotone epochs" `Quick
            test_snapshot_monotone_epochs;
          Alcotest.test_case "wall time excluded" `Quick
            test_snapshot_excludes_wall_time;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prom_exposition;
          Alcotest.test_case "profile diff json" `Quick test_profile_diff_json;
        ] );
      ( "reaction",
        [ Alcotest.test_case "notch follows the alert state" `Quick
            test_reaction_notch_follows_alert;
          Alcotest.test_case "overload recovers faster with reaction on"
            `Quick test_reaction_recovers_faster;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "observer does not perturb" `Quick
            test_observer_does_not_perturb;
          Alcotest.test_case "scripted fault raises alert" `Quick
            test_scripted_fault_raises_alert;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_stream_replay_identical; prop_fault_free_soak_is_quiet ] );
    ]

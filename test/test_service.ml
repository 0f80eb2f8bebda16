(* Tests for lib/service: arrival streams, admission control, the
   epoch-based service loop, and the soak harness gates. *)

open Service

let check_int = Alcotest.(check int)

let mk_stream ?(seed = 7) ?(ports = 4) ?random_weights proc =
  Arrivals.create ?random_weights ~ports ~seed proc

let drain n src =
  List.init n (fun _ ->
      match Arrivals.next src with
      | Some c -> c
      | None -> Alcotest.fail "generative stream ended")

(* ---------- arrivals ---------- *)

let test_arrivals_deterministic () =
  let a = drain 50 (mk_stream (Arrivals.Poisson { mean_gap = 3.0 })) in
  let b = drain 50 (mk_stream (Arrivals.Poisson { mean_gap = 3.0 })) in
  List.iter2
    (fun x y ->
      check_int "id" x.Arrivals.id y.Arrivals.id;
      check_int "arrival" x.Arrivals.arrival y.Arrivals.arrival;
      Alcotest.(check bool) "demand" true
        (Matrix.Mat.equal x.Arrivals.demand y.Arrivals.demand);
      Alcotest.(check (float 0.0)) "weight" x.Arrivals.weight y.Arrivals.weight)
    a b;
  let c = drain 50 (mk_stream ~seed:8 (Arrivals.Poisson { mean_gap = 3.0 })) in
  Alcotest.(check bool) "different seed, different stream" false
    (List.for_all2
       (fun x y -> x.Arrivals.arrival = y.Arrivals.arrival)
       a c)

let test_arrivals_monotone_ids_and_slots () =
  let cs =
    drain 200
      (mk_stream (Arrivals.Mmpp { mean_gaps = [| 8.0; 1.0 |]; mean_dwell = 10 }))
  in
  ignore
    (List.fold_left
       (fun (prev_id, prev_at) c ->
         check_int "ids dense" (prev_id + 1) c.Arrivals.id;
         Alcotest.(check bool) "arrivals nondecreasing" true
           (c.Arrivals.arrival >= prev_at);
         (c.Arrivals.id, c.Arrivals.arrival))
       (-1, 0) cs)

let test_arrivals_peek_consistent () =
  let src = mk_stream (Arrivals.Poisson { mean_gap = 5.0 }) in
  for _ = 1 to 20 do
    let peeked = Option.get (Arrivals.peek_arrival src) in
    let c = Option.get (Arrivals.next src) in
    check_int "peek = next" peeked c.Arrivals.arrival
  done;
  check_int "drawn counted" 20 (Arrivals.drawn src)

let replay_instance () =
  Workload.Fb_like.generate_with_arrivals ~ports:4 ~coflows:12 ~mean_gap:6
    (Random.State.make [| 99 |])

let test_arrivals_replay () =
  let inst = replay_instance () in
  let src = mk_stream (Arrivals.Replay inst) in
  let cs = List.init 12 (fun _ -> Option.get (Arrivals.next src)) in
  check_int "exhausted" 12 (List.length cs);
  Alcotest.(check bool) "ends" true (Arrivals.next src = None);
  Alcotest.(check bool) "peek ends" true (Arrivals.peek_arrival src = None);
  ignore
    (List.fold_left
       (fun prev c ->
         Alcotest.(check bool) "release order" true (c.Arrivals.arrival >= prev);
         c.Arrivals.arrival)
       0 cs)

let test_arrivals_validation () =
  List.iter
    (fun (label, f) ->
      try
        ignore (f ());
        Alcotest.fail (label ^ ": expected Invalid_argument")
      with Invalid_argument _ -> ())
    [ ( "bad mean gap",
        fun () -> mk_stream (Arrivals.Poisson { mean_gap = 0.0 }) );
      ( "no phases",
        fun () ->
          mk_stream (Arrivals.Mmpp { mean_gaps = [||]; mean_dwell = 4 }) );
      ( "bad dwell",
        fun () ->
          mk_stream (Arrivals.Mmpp { mean_gaps = [| 2.0 |]; mean_dwell = 0 })
      );
      ( "port mismatch",
        fun () -> mk_stream ~ports:7 (Arrivals.Replay (replay_instance ())) );
      ("bad ports", fun () -> mk_stream ~ports:0 (Arrivals.Poisson { mean_gap = 1.0 }));
    ]

(* ---------- admission ---------- *)

let small_demand () = Matrix.Mat.of_arrays [| [| 2; 0 |]; [| 0; 2 |] |]

let arrival demand = { Arrivals.id = 0; arrival = 0; demand; weight = 1.0 }

let test_admission_backpressure () =
  let cfg = { Admission.default_config with max_live = 3 } in
  let c = arrival (small_demand ()) in
  (match Admission.decide cfg ~ports:2 ~live:3 ~backlog_units:0 ~now:5 c with
  | Admission.Reject Admission.Queue_full -> ()
  | _ -> Alcotest.fail "expected queue-full rejection");
  match Admission.decide cfg ~ports:2 ~live:2 ~backlog_units:0 ~now:5 c with
  | Admission.Admit { deadline = Some d } ->
    (* now + slack + factor * rho = 5 + 32 + 8*2 *)
    check_int "deadline" 53 d
  | _ -> Alcotest.fail "expected admit with deadline"

let test_admission_deadline_gate () =
  let cfg =
    { Admission.max_live = 10; deadline_factor = 2.0; deadline_slack = 0 }
  in
  let c = arrival (small_demand ()) in
  (* backlog 100 units over 2 ports drains in 50 slots; estimate 52 is
     past the deadline now + 2*2 = 4 *)
  (match Admission.decide cfg ~ports:2 ~live:1 ~backlog_units:100 ~now:0 c with
  | Admission.Reject Admission.Deadline_unmeetable -> ()
  | _ -> Alcotest.fail "expected deadline rejection");
  (* factor <= 0 disables the gate entirely *)
  match
    Admission.decide
      { cfg with Admission.deadline_factor = 0.0 }
      ~ports:2 ~live:1 ~backlog_units:100 ~now:0 c
  with
  | Admission.Admit { deadline = None } -> ()
  | _ -> Alcotest.fail "expected unconditional admit"

let test_admission_validation () =
  List.iter
    (fun (label, cfg) ->
      try
        Admission.validate cfg;
        Alcotest.fail (label ^ ": expected Invalid_argument")
      with Invalid_argument _ -> ())
    [ ("zero live", { Admission.default_config with max_live = 0 });
      ("negative slack", { Admission.default_config with deadline_slack = -1 });
    ];
  check_int "isolation bound"
    2
    (Admission.isolation_bound (small_demand ()))

(* ---------- fingerprint ---------- *)

let test_fingerprint () =
  let f = Fingerprint.create () in
  (* FNV-1a 64 offset basis *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (Fingerprint.hex f);
  Fingerprint.str f "a";
  Alcotest.(check string) "'a'" "af63dc4c8601ec8c" (Fingerprint.hex f);
  let g = Fingerprint.create () and h = Fingerprint.create () in
  Fingerprint.int g 1;
  Fingerprint.int h 256;
  Alcotest.(check bool) "order of bytes matters" false
    (String.equal (Fingerprint.hex g) (Fingerprint.hex h))

(* ---------- epoch loop + soak ---------- *)

let soak_cfg ?(coflows = 300) ?(seed = 5) () =
  { Soak.default_config with coflows; seed; plan_seed = seed + 1 }

let test_soak_gates_pass () =
  let report = Soak.run ~verify_replay:true (soak_cfg ()) in
  (match Soak.failed report with
  | [] -> ()
  | g :: _ ->
    Alcotest.failf "gate %s failed: %s" g.Soak.gate
      (Option.value ~default:"?" g.Soak.failure));
  let s = report.Soak.stats in
  check_int "arrivals partitioned" s.Epoch_loop.arrived
    (s.Epoch_loop.admitted + s.Epoch_loop.rejected_queue
   + s.Epoch_loop.rejected_deadline);
  check_int "drained" s.Epoch_loop.admitted s.Epoch_loop.completed;
  check_int "every slot audited" s.Epoch_loop.slots s.Epoch_loop.audited_slots;
  Alcotest.(check bool) "live ceiling" true
    (s.Epoch_loop.max_live
    <= Soak.default_config.Soak.loop.Epoch_loop.admission.Admission.max_live);
  Alcotest.(check bool) "tier slots sum" true
    (List.fold_left (fun a (_, n) -> a + n) 0 s.Epoch_loop.tier_slots
    = s.Epoch_loop.slots);
  Alcotest.(check bool) "waits ordered" true
    (s.Epoch_loop.wait_p50 <= s.Epoch_loop.wait_p99)

let test_soak_replay_identical_and_seeds_differ () =
  let a = Soak.run (soak_cfg ()) in
  let b = Soak.run (soak_cfg ()) in
  Alcotest.(check string) "same seed, same fingerprint"
    a.Soak.stats.Epoch_loop.fingerprint b.Soak.stats.Epoch_loop.fingerprint;
  Alcotest.(check (float 0.0)) "same twct" a.Soak.stats.Epoch_loop.twct
    b.Soak.stats.Epoch_loop.twct;
  let c = Soak.run (soak_cfg ~seed:77 ()) in
  Alcotest.(check bool) "different seed, different fingerprint" false
    (String.equal a.Soak.stats.Epoch_loop.fingerprint
       c.Soak.stats.Epoch_loop.fingerprint)

let test_soak_lp_budget_degrades () =
  (* a 1-pivot budget with no retries forces the LP tier to fail on any
     non-trivial epoch; the service must degrade to H_rho, count every
     transition, and still drain *)
  let base = soak_cfg ~coflows:200 () in
  let cfg =
    { base with
      Soak.loop =
        { base.Soak.loop with
          Epoch_loop.lp_max_iterations = 1;
          lp_retries = 0;
          faults = Seeded 0.0;
        };
      wait_p99_slo = None;
    }
  in
  let report = Soak.run cfg in
  let s = report.Soak.stats in
  (match Soak.failed report with
  | [] -> ()
  | g :: _ -> Alcotest.failf "gate %s failed" g.Soak.gate);
  Alcotest.(check bool) "lp failures seen" true (s.Epoch_loop.lp_failures > 0);
  Alcotest.(check bool) "degradations recorded" true
    (s.Epoch_loop.degradations > 0);
  let rho = List.assoc Core.Resilient.Rho s.Epoch_loop.tier_slots in
  Alcotest.(check bool) "rho served slots" true (rho > 0)

let test_soak_slo_pressure_degrades () =
  (* live set above degrade_live_above must skip the LP tier outright *)
  let base = soak_cfg ~coflows:200 () in
  let cfg =
    { base with
      Soak.process = Arrivals.Poisson { mean_gap = 1.0 };
      loop =
        { base.Soak.loop with
          Epoch_loop.degrade_live_above = 1;
          faults = Seeded 0.0;
        };
      wait_p99_slo = None;
    }
  in
  let s = (Soak.run cfg).Soak.stats in
  Alcotest.(check bool) "slo degradations" true
    (s.Epoch_loop.slo_degradations > 0);
  check_int "drained under pressure" s.Epoch_loop.admitted
    s.Epoch_loop.completed

let test_soak_replay_source () =
  (* a recorded trace replayed through the service drains completely and
     deterministically *)
  let inst = replay_instance () in
  let cfg =
    { (soak_cfg ~coflows:12 ()) with
      Soak.process = Arrivals.Replay inst;
      params = None;
    }
  in
  let a = Soak.run ~verify_replay:true cfg in
  (match Soak.failed a with
  | [] -> ()
  | g :: _ -> Alcotest.failf "gate %s failed" g.Soak.gate);
  check_int "all coflows seen" 12 a.Soak.stats.Epoch_loop.arrived

let test_config_validation () =
  List.iter
    (fun (label, loop) ->
      try
        Epoch_loop.validate_config loop;
        Alcotest.fail (label ^ ": expected Invalid_argument")
      with Invalid_argument _ -> ())
    [ ("epoch 0", { Epoch_loop.default_config with epoch_length = 0 });
      ( "pivots 0",
        { Epoch_loop.default_config with lp_max_iterations = 0 } );
      ("retries < 0", { Epoch_loop.default_config with lp_retries = -1 });
      ( "deadline 0",
        { Epoch_loop.default_config with lp_deadline = Some 0.0 } );
      ( "intensity < 0",
        { Epoch_loop.default_config with faults = Seeded (-1.0) } );
      ( "degrade 0",
        { Epoch_loop.default_config with degrade_live_above = 0 } );
      ("slots 0", { Epoch_loop.default_config with max_slots = 0 });
      ( "bad admission",
        { Epoch_loop.default_config with
          admission = { Admission.default_config with max_live = 0 };
        } );
    ];
  (* zero coflows is legal and immediately drained *)
  let src = mk_stream ~ports:8 (Arrivals.Poisson { mean_gap = 2.0 }) in
  let s = Epoch_loop.run Epoch_loop.default_config src ~coflows:0 in
  check_int "nothing arrived" 0 s.Epoch_loop.arrived;
  check_int "nothing served" 0 s.Epoch_loop.slots;
  Alcotest.(check string) "virgin fingerprint" "cbf29ce484222325"
    s.Epoch_loop.fingerprint

let test_max_slots_exhaustion () =
  let base = soak_cfg ~coflows:50 () in
  let cfg =
    { base.Soak.loop with Epoch_loop.max_slots = 3; faults = Seeded 0.0 }
  in
  let src = mk_stream ~ports:8 (Arrivals.Poisson { mean_gap = 2.0 }) in
  match Epoch_loop.run cfg src ~coflows:50 with
  | _ -> Alcotest.fail "expected max_slots failure"
  | exception Failure _ -> ()

(* Batched serving in faulted epochs is a pure speed-up: every stats
   field, every epoch view and the fingerprint match the slot-by-slot
   reference, on one switch and on two fabrics at different rates. *)
let test_batch_equals_slot_by_slot () =
  let batched = Obs.Counter.make "service.batched_slots" in
  let nets =
    [ ("single", None);
      ("uniform [2; 1]", Some (Switchsim.Net.uniform ~ports:8 ~rates:[ 2; 1 ]));
    ]
  in
  List.iter
    (fun (label, net) ->
      List.iter
        (fun intensity ->
          List.iter
            (fun seed ->
              let cfg = soak_cfg ~coflows:300 ~seed () in
              let loop =
                { cfg.Soak.loop with
                  Epoch_loop.faults = Seeded intensity;
                  net;
                }
              in
              let run batch =
                let views = ref [] in
                let src = mk_stream ~seed ~ports:8 cfg.Soak.process in
                let stats =
                  Epoch_loop.run ~plan_seed:cfg.Soak.plan_seed ~batch
                    ~observer:(fun v -> views := v :: !views)
                    loop src ~coflows:cfg.Soak.coflows
                in
                (stats, List.rev !views)
              in
              let case =
                Printf.sprintf "%s, intensity %.1f, seed %d" label
                  intensity seed
              in
              let before = Obs.Counter.value batched in
              let sb, vb = run true in
              Alcotest.(check bool) (case ^ ": faulted epochs batched") true
                (Obs.Counter.value batched > before);
              let ss, vs = run false in
              Alcotest.(check string) (case ^ ": fingerprint")
                ss.Epoch_loop.fingerprint sb.Epoch_loop.fingerprint;
              Alcotest.(check bool) (case ^ ": stats") true (sb = ss);
              Alcotest.(check int) (case ^ ": epochs viewed")
                (List.length vs) (List.length vb);
              Alcotest.(check bool) (case ^ ": epoch views") true (vb = vs))
            [ 5; 6; 7 ])
        [ 1.0; 2.0 ])
    nets

(* ---------- E17 ---------- *)

let test_exp_soak_rows () =
  let cfg =
    { (Experiments.Config.of_scale Experiments.Config.Quick) with
      Experiments.Config.coflows = 15;
    }
  in
  let rows = Experiments.Exp_soak.run cfg in
  check_int "three regimes" 3 (List.length rows);
  Alcotest.(check bool) "all gates pass" true
    (Experiments.Exp_soak.all_pass rows);
  let rendered = Experiments.Exp_soak.render cfg in
  Alcotest.(check bool) "render mentions E17" true
    (Astring.String.is_infix ~affix:"E17" rendered)

let () =
  Alcotest.run "service"
    [ ( "arrivals",
        [ Alcotest.test_case "deterministic" `Quick test_arrivals_deterministic;
          Alcotest.test_case "monotone ids and slots" `Quick
            test_arrivals_monotone_ids_and_slots;
          Alcotest.test_case "peek consistent" `Quick
            test_arrivals_peek_consistent;
          Alcotest.test_case "replay" `Quick test_arrivals_replay;
          Alcotest.test_case "validation" `Quick test_arrivals_validation;
        ] );
      ( "admission",
        [ Alcotest.test_case "backpressure" `Quick test_admission_backpressure;
          Alcotest.test_case "deadline gate" `Quick test_admission_deadline_gate;
          Alcotest.test_case "validation" `Quick test_admission_validation;
        ] );
      ( "fingerprint",
        [ Alcotest.test_case "fnv-1a vectors" `Quick test_fingerprint ] );
      ( "soak",
        [ Alcotest.test_case "gates pass" `Quick test_soak_gates_pass;
          Alcotest.test_case "replay identical, seeds differ" `Quick
            test_soak_replay_identical_and_seeds_differ;
          Alcotest.test_case "lp budget degrades" `Quick
            test_soak_lp_budget_degrades;
          Alcotest.test_case "slo pressure degrades" `Quick
            test_soak_slo_pressure_degrades;
          Alcotest.test_case "replay source" `Quick test_soak_replay_source;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "max_slots" `Quick test_max_slots_exhaustion;
          Alcotest.test_case "batched = slot by slot" `Quick
            test_batch_equals_slot_by_slot;
        ] );
      ( "exp-soak",
        [ Alcotest.test_case "rows and gates" `Quick test_exp_soak_rows ] );
    ]

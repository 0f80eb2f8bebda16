(* Tests for the fault-injection layer (lib/faults) and the
   degradation-aware scheduling loop (Core.Resilient). *)

open Matrix
open Switchsim
open Faults

let check_int = Alcotest.(check int)

let t i j k = { Simulator.src = i; dst = j; coflow = k; fabric = 0 }

(* a hand-written transcript: one transfer list per slot, first slot
   first *)
let transcript ~ports slots =
  let log = Recorder.log ~ports in
  List.iter (fun transfers -> Recorder.add log transfers ~slots:1) slots;
  Recorder.contents log

let fig1 () = Mat.of_arrays [| [| 1; 2 |]; [| 2; 1 |] |]

let expect_invalid_arg label f =
  try
    f ();
    Alcotest.fail (label ^ ": expected Invalid_argument")
  with Invalid_argument _ -> ()

(* compile every slow link, as the list queries see them *)
let every_pair ~src:_ ~dst:_ = true

let expect_invalid_slot label f =
  try
    f ();
    Alcotest.fail (label ^ ": expected Invalid_slot")
  with Simulator.Invalid_slot _ -> ()

(* ---------- fault plans ---------- *)

let sample_plan () =
  Fault_plan.make
    [ Fault_plan.Port_down { port = 0; from_ = 2; until = 4 };
      Fault_plan.Link_degraded
        { src = 1; dst = 1; from_ = 0; until = 10; period = 2 };
      Fault_plan.Core_degraded { from_ = 3; until = 6; capacity = 1 };
      Fault_plan.Straggler { coflow = 0; at = 5; factor = 2 };
      Fault_plan.Release_delay { coflow = 1; delay = 3 };
      Fault_plan.Solver_outage { from_ = 1; until = 7; full = false };
    ]

let test_plan_validate () =
  Alcotest.(check bool) "good plan" true
    (Result.is_ok (Fault_plan.validate ~ports:2 ~coflows:2 (sample_plan ())));
  (* each event rule rejects its event and names itself *)
  List.iter
    (fun (rule, ev) ->
      match
        Fault_plan.validate ~ports:2 ~coflows:2 (Fault_plan.make [ ev ])
      with
      | Ok () -> Alcotest.failf "%s: accepted" rule
      | Error msg ->
        Alcotest.(check bool) (rule ^ ": named") true
          (Astring.String.is_infix ~affix:rule msg))
    [ ( "port out of range",
        Fault_plan.Port_down { port = 2; from_ = 0; until = 1 } );
      ( "negative start slot",
        Fault_plan.Port_down { port = 0; from_ = -1; until = 1 } );
      ( "empty or inverted interval",
        Fault_plan.Port_down { port = 0; from_ = 3; until = 3 } );
      ( "degradation period must be at least 2",
        Fault_plan.Link_degraded
          { src = 0; dst = 0; from_ = 0; until = 5; period = 1 } );
      ( "negative degraded capacity",
        Fault_plan.Core_degraded { from_ = 0; until = 5; capacity = -1 } );
      ( "coflow out of range",
        Fault_plan.Straggler { coflow = 2; at = 0; factor = 2 } );
      ( "straggler factor must be at least 2",
        Fault_plan.Straggler { coflow = 0; at = 0; factor = 1 } );
      ( "delay must be positive",
        Fault_plan.Release_delay { coflow = 0; delay = 0 } );
      ( "empty or inverted interval",
        Fault_plan.Solver_outage { from_ = 5; until = 2; full = true } );
    ];
  (* compiling validates, coflow indices included *)
  expect_invalid_arg "compile: port" (fun () ->
      ignore
        (Fault_plan.compile ~carried:every_pair ~coflows:2
           (Fault_plan.make
              [ Fault_plan.Port_down { port = 9; from_ = 0; until = 1 } ])
           (Net.single ~ports:2)));
  expect_invalid_arg "compile: coflow" (fun () ->
      ignore
        (Fault_plan.compile ~carried:every_pair ~coflows:2
           (Fault_plan.make
              [ Fault_plan.Release_delay { coflow = 2; delay = 1 } ])
           (Net.single ~ports:2)))

let test_plan_queries () =
  let p = sample_plan () in
  Alcotest.(check bool) "port up before" false
    (Fault_plan.port_down p ~slot:1 0);
  Alcotest.(check bool) "port down inside" true
    (Fault_plan.port_down p ~slot:2 0);
  Alcotest.(check bool) "half-open interval" false
    (Fault_plan.port_down p ~slot:4 0);
  check_int "degraded period" 2 (Fault_plan.link_period p ~slot:0 ~src:1 ~dst:1);
  check_int "healthy link" 1 (Fault_plan.link_period p ~slot:0 ~src:0 ~dst:1);
  Alcotest.(check bool) "on duty cycle" true
    (Fault_plan.link_usable p ~slot:2 ~src:1 ~dst:1);
  Alcotest.(check bool) "off duty cycle" false
    (Fault_plan.link_usable p ~slot:3 ~src:1 ~dst:1);
  Alcotest.(check (option int)) "core degraded" (Some 1)
    (Fault_plan.core_capacity p ~slot:4);
  Alcotest.(check (option int)) "core healthy" None
    (Fault_plan.core_capacity p ~slot:7);
  Alcotest.(check bool) "lp outage" true
    (Fault_plan.solver_outage p ~slot:3 = `Lp_only);
  Alcotest.(check bool) "no outage" true
    (Fault_plan.solver_outage p ~slot:0 = `None);
  check_int "release delay" 3 (Fault_plan.release_delay p 1);
  check_int "no delay" 0 (Fault_plan.release_delay p 0);
  Alcotest.(check (list (triple int int int))) "stragglers" [ (5, 0, 2) ]
    (Fault_plan.stragglers p);
  Alcotest.(check bool) "boundaries sorted, includes 5" true
    (let b = Fault_plan.boundaries p in
     List.mem 5 b && List.sort_uniq compare b = b)

let test_plan_random () =
  let gen seed intensity =
    Fault_plan.random ~intensity ~ports:8 ~coflows:20 ~horizon:50
      (Random.State.make [| seed |])
  in
  Alcotest.(check bool) "intensity 0 is empty" true
    (Fault_plan.is_empty (gen 1 0.0));
  let p = gen 2 1.0 in
  Alcotest.(check bool) "nonempty at 1.0" false (Fault_plan.is_empty p);
  Alcotest.(check bool) "validates" true
    (Result.is_ok (Fault_plan.validate ~ports:8 ~coflows:20 p));
  Alcotest.(check bool) "seed-deterministic" true
    (Fault_plan.events (gen 3 1.5) = Fault_plan.events (gen 3 1.5));
  expect_invalid_arg "negative intensity" (fun () ->
      ignore (gen 4 (-0.5)))

(* ---------- Fabric_down: whole-switch outages ---------- *)

let tf i j k f = { Simulator.src = i; dst = j; coflow = k; fabric = f }

(* the two-fabric net the hand-written multi-fabric transcripts run on *)
let net2 = Net.uniform ~ports:2 ~rates:[ 1; 1 ]

let down ~fabric ~from_ ~until =
  Fault_plan.make [ Fault_plan.Fabric_down { fabric; from_; until } ]

let test_plan_fabric_down () =
  let p = down ~fabric:1 ~from_:2 ~until:5 in
  (* a single-fabric net has no fabric 1 — and cannot lose fabric 0 *)
  Alcotest.(check bool) "rejected at k=1" true
    (Result.is_error (Fault_plan.validate ~ports:2 ~coflows:1 p));
  Alcotest.(check bool) "accepted at k=2" true
    (Result.is_ok (Fault_plan.validate ~fabrics:2 ~ports:2 ~coflows:1 p));
  Alcotest.(check bool) "the only fabric cannot go down" true
    (Result.is_error
       (Fault_plan.validate ~ports:2 ~coflows:1
          (down ~fabric:0 ~from_:0 ~until:1)));
  (* half-open interval queries *)
  Alcotest.(check bool) "down inside" true
    (Fault_plan.fabric_down p ~slot:2 1);
  Alcotest.(check bool) "up at until" false
    (Fault_plan.fabric_down p ~slot:5 1);
  Alcotest.(check bool) "other fabric unaffected" false
    (Fault_plan.fabric_down p ~slot:2 0);
  (* boundaries drive re-planning *)
  Alcotest.(check bool) "boundaries carry the window" true
    (List.mem 2 (Fault_plan.boundaries p)
    && List.mem 5 (Fault_plan.boundaries p))

let test_plan_random_fabrics () =
  let gen ?fabrics intensity seed =
    Fault_plan.random ?fabrics ~intensity ~ports:8 ~coflows:20 ~horizon:50
      (Random.State.make [| seed |])
  in
  (* single-fabric plans are byte-identical whether or not the caller
     passes ~fabrics:1 — the soak baselines depend on this *)
  Alcotest.(check bool) "fabrics:1 is byte-compatible" true
    (Fault_plan.events (gen 1.0 7) = Fault_plan.events (gen ~fabrics:1 1.0 7));
  (* at high intensity on a multi-fabric net an outage appears, and it
     validates against that fabric count *)
  let p = gen ~fabrics:4 1.0 7 in
  Alcotest.(check bool) "fabric outage drawn" true
    (List.exists
       (function Fault_plan.Fabric_down _ -> true | _ -> false)
       (Fault_plan.events p));
  Alcotest.(check bool) "validates at k=4" true
    (Result.is_ok (Fault_plan.validate ~fabrics:4 ~ports:8 ~coflows:20 p));
  (* below the gate no whole-fabric outage is drawn *)
  Alcotest.(check bool) "gated below 0.5" false
    (List.exists
       (function Fault_plan.Fabric_down _ -> true | _ -> false)
       (Fault_plan.events (gen ~fabrics:4 0.4 7)))

let test_injector_fabric_down () =
  let net = Net.uniform ~ports:2 ~rates:[ 4; 1 ] in
  let plan = down ~fabric:0 ~from_:0 ~until:2 in
  let inj = Injector.create ~net ~plan ~ports:2 [ (0, fig1 ()) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  (* the fast fabric is down: serving on it is rejected outright *)
  expect_invalid_slot "downed fabric rejected" (fun () ->
      Simulator.step sim [ tf 0 1 0 0 ]);
  (* the survivor carries the slot, and greedy routes onto it *)
  let greedy () =
    Core.Policy.greedy_matching ~faults:(Injector.faults inj) sim
      ~priority:[| 0 |]
  in
  let ts = greedy () in
  Alcotest.(check bool) "greedy avoids the dead fabric" true
    (ts <> [] && List.for_all (fun { Simulator.fabric; _ } -> fabric = 1) ts);
  Simulator.step sim ts;
  (* outage lifts at slot 2: the fast fabric serves again *)
  Injector.tick inj;
  let ts = greedy () in
  Simulator.step sim ts;
  Injector.tick inj;
  let ts = greedy () in
  Alcotest.(check bool) "fast fabric back in rotation" true
    (List.exists (fun { Simulator.fabric; _ } -> fabric = 0) ts);
  Simulator.step sim ts

let test_injector_net_port_mismatch () =
  let net = Net.uniform ~ports:3 ~rates:[ 1 ] in
  expect_invalid_arg "net over other ports" (fun () ->
      ignore
        (Injector.create ~net ~plan:Fault_plan.empty ~ports:2 [ (0, fig1 ()) ]))

let test_audit_fabric_constraints () =
  let plan = down ~fabric:0 ~from_:0 ~until:1 in
  (* riding the downed fabric is caught by the independent re-check *)
  let bad = transcript ~ports:2 [ [ tf 0 1 0 0 ] ] in
  (match Audit.check ~net:net2 ~plan bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "downed-fabric transfer certified");
  (* the same pair on two fabrics in one slot is double service *)
  let dup = transcript ~ports:2 [ [ tf 0 1 0 0; tf 0 1 0 1 ] ] in
  (match Audit.check ~net:net2 ~plan:Fault_plan.empty dup with
  | Error m ->
    Alcotest.(check bool) "names the double service" true
      (Astring.String.is_infix ~affix:"two fabrics" m)
  | Ok () -> Alcotest.fail "double service certified");
  (* a fabric index outside the net is rejected *)
  let oob = transcript ~ports:2 [ [ tf 0 1 0 5 ] ] in
  (match Audit.check ~net:net2 ~plan:Fault_plan.empty oob with
  | Error m ->
    Alcotest.(check bool) "names the range" true
      (Astring.String.is_infix ~affix:"out of range" m)
  | Ok () -> Alcotest.fail "out-of-range fabric certified");
  (* the same slot with distinct pairs on both fabrics is clean *)
  let ok = transcript ~ports:2 [ [ tf 0 1 0 0; tf 1 0 0 1 ] ] in
  match Audit.check ~net:net2 ~plan:Fault_plan.empty ok with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("clean two-fabric slot rejected: " ^ m)

let test_resilient_fabric_down_replans () =
  (* mid-run loss of the fast fabric: residuals drain on the survivor,
     with a replan at each outage boundary *)
  let st = Random.State.make [| 77 |] in
  let inst = Workload.Fb_like.generate ~ports:6 ~coflows:10 st in
  let net = Net.uniform ~ports:6 ~rates:[ 4; 1 ] in
  let plan = down ~fabric:0 ~from_:3 ~until:9 in
  let config =
    { Core.Resilient.default_config with
      Core.Resilient.primary = Core.Resilient.Rho
    }
  in
  let r = Core.Resilient.run ~config ~net ~plan inst in
  Alcotest.(check bool) "completed" true
    (Array.for_all (fun c -> c >= 0) r.Core.Resilient.completion);
  Alcotest.(check bool) "replanned at both boundaries" true
    (r.Core.Resilient.replans >= 2);
  (match Audit.check ~net ~plan r.Core.Resilient.audit with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("audit rejected: " ^ m));
  (* nothing rode fabric 0 inside the window *)
  let audit = r.Core.Resilient.audit in
  for s = 3 to min 8 (Array.length audit.Recorder.slots - 1) do
    List.iter
      (fun { Simulator.fabric; _ } ->
        if fabric = 0 then Alcotest.failf "slot %d rode the dead fabric" s)
      audit.Recorder.slots.(s)
  done

(* ---------- injector enforcement ---------- *)

let test_injector_dead_port () =
  let plan =
    Fault_plan.make [ Fault_plan.Port_down { port = 0; from_ = 0; until = 2 } ]
  in
  let inj = Injector.create ~plan ~ports:2 [ (0, fig1 ()) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  expect_invalid_slot "src on dead port" (fun () ->
      Simulator.step sim [ t 0 1 0 ]);
  expect_invalid_slot "dst on dead port" (fun () ->
      Simulator.step sim [ t 1 0 0 ]);
  Simulator.step sim [ t 1 1 0 ];
  check_int "healthy pair served" 5 (Simulator.remaining_total sim 0);
  (let st = Injector.faults inj in
   Fault_plan.refresh st ~slot:1;
   Alcotest.(check int) "state has port 0 down" 0
     (Fault_plan.port_up_word st 0 land 1));
  (* outage lifts at slot 2 *)
  Simulator.step sim [];
  Injector.tick inj;
  Simulator.step sim [ t 0 1 0 ];
  check_int "port back up" 4 (Simulator.remaining_total sim 0)

let test_injector_link_duty_cycle () =
  let plan =
    Fault_plan.make
      [ Fault_plan.Link_degraded
          { src = 0; dst = 1; from_ = 0; until = 10; period = 2 };
      ]
  in
  (* fig1 has demand 2 on link (0, 1), enough for both attempts *)
  let inj = Injector.create ~plan ~ports:2 [ (0, fig1 ()) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  Simulator.step sim [ t 0 1 0 ] (* slot 0: 0 mod 2 = 0, usable *);
  Injector.tick inj;
  expect_invalid_slot "off duty cycle" (fun () ->
      Simulator.step sim [ t 0 1 0 ]);
  Simulator.step sim [ t 1 1 0 ] (* healthy link still fine *);
  check_int "two units moved" 4 (Simulator.remaining_total sim 0)

let test_injector_aggregate_core_cap () =
  (* no topology: a degraded core caps total transfers per slot *)
  let plan =
    Fault_plan.make
      [ Fault_plan.Core_degraded { from_ = 0; until = 5; capacity = 1 } ]
  in
  let inj = Injector.create ~plan ~ports:2 [ (0, fig1 ()) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  (let st = Injector.faults inj in
   Fault_plan.refresh st ~slot:0;
   check_int "capacity tightened" 1 (Fault_plan.core_budget st));
  expect_invalid_slot "two transfers over cap" (fun () ->
      Simulator.step sim [ t 0 0 0; t 1 1 0 ]);
  Simulator.step sim [ t 0 0 0 ];
  check_int "single transfer fine" 5 (Simulator.remaining_total sim 0)

let test_injector_fabric_core_cap () =
  (* two-tier core capacity 2, plan degrades it to 1: two inter-rack
     transfers must be rejected, intra-rack traffic is unaffected *)
  let net = Net.two_tier ~ports:4 ~rack_size:2 ~core_capacity:2 in
  let plan =
    Fault_plan.make
      [ Fault_plan.Core_degraded { from_ = 0; until = 5; capacity = 1 } ]
  in
  let d = Mat.make 4 in
  Mat.set d 0 2 1;
  Mat.set d 1 3 1;
  Mat.set d 2 3 2;
  let inj = Injector.create ~net ~plan ~ports:4 [ (0, d) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  expect_invalid_slot "inter-rack over degraded cap" (fun () ->
      Simulator.step sim [ t 0 2 0; t 1 3 0 ]);
  Simulator.step sim [ t 0 2 0; t 2 3 0 ];
  check_int "inter + intra ok" 2 (Simulator.remaining_total sim 0)

let test_injector_straggler_tick () =
  let plan =
    Fault_plan.make
      [ Fault_plan.Straggler { coflow = 0; at = 1; factor = 3 } ]
  in
  let inj = Injector.create ~plan ~ports:2 [ (0, fig1 ()) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  check_int "nothing yet" 6 (Simulator.remaining_total sim 0);
  Simulator.step sim [];
  Injector.tick inj;
  check_int "remaining tripled" 18 (Simulator.remaining_total sim 0);
  Injector.tick inj;
  check_int "tick idempotent for past events" 18
    (Simulator.remaining_total sim 0)

let test_injector_release_delay () =
  let plan =
    Fault_plan.make [ Fault_plan.Release_delay { coflow = 0; delay = 2 } ]
  in
  let inj = Injector.create ~plan ~ports:2 [ (0, fig1 ()) ] in
  let sim = Injector.sim inj in
  check_int "release pushed" 2 (Simulator.release_time sim 0)

let test_injector_rejects_bad_plan () =
  let plan =
    Fault_plan.make [ Fault_plan.Port_down { port = 7; from_ = 0; until = 1 } ]
  in
  expect_invalid_arg "plan outside geometry" (fun () ->
      ignore (Injector.create ~plan ~ports:2 [ (0, fig1 ()) ]))

(* A straggler factor that would grow a coflow's demand past [max_int] is
   refused when the injector is built, with an error naming it, instead
   of wrapping around inside [tick]. *)
let test_injector_straggler_overflow () =
  let inst =
    Workload.Synthetic.uniform ~density:0.6 ~max_size:4 ~ports:3 ~coflows:3
      (Random.State.make [| 1 |])
  in
  let rejected label f =
    match f () with
    | () -> Alcotest.fail (label ^ ": expected Invalid_argument")
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (label ^ ": named error") true
        (Astring.String.is_infix ~affix:"straggler factor" msg
        && Astring.String.is_infix ~affix:"coflow 0" msg)
  in
  List.iter
    (fun factor ->
      let plan =
        Fault_plan.make [ Fault_plan.Straggler { coflow = 0; at = 1; factor } ]
      in
      rejected (string_of_int factor) (fun () ->
          ignore (Core.Resilient.run ~plan inst)))
    [ 4611686018427387903; 2305843009213693952 ];
  let big at = Fault_plan.Straggler { coflow = 0; at; factor = 2147483648 } in
  let create events () =
    ignore
      (Injector.create ~plan:(Fault_plan.make events) ~ports:3
         (Workload.Instance.demands inst))
  in
  create [ big 1 ] ();
  create [ big 2 ] ();
  rejected "two 2^31 stragglers" (create [ big 1; big 2 ]);
  let r =
    Core.Resilient.run
      ~plan:
        (Fault_plan.make
           [ Fault_plan.Straggler { coflow = 0; at = 1; factor = 1000 } ])
      inst
  in
  Alcotest.(check bool) "factor 1000 completes" true
    (Array.for_all (fun c -> c > 0) r.Core.Resilient.completion);
  check_int "factor 1000 slots" 10017 r.Core.Resilient.slots;
  check_int "factor 1000 decisions" 15
    r.Core.Resilient.engine.Core.Engine.decisions

(* fig1 coflows released at slot 0, served in arrival order: the fault
   loop with nothing but the greedy service in it *)
let fig1_instance n =
  Workload.Instance.make ~ports:2
    (List.init n (fun id ->
         { Workload.Instance.id; release = 0; weight = 1.0; demand = fig1 () }))

let arrival_config =
  { Core.Resilient.default_config with
    Core.Resilient.primary = Core.Resilient.Arrival
  }

let test_injector_run_completes () =
  let plan = sample_plan () in
  let r = Core.Resilient.run ~config:arrival_config ~plan (fig1_instance 2) in
  Alcotest.(check bool) "all complete" true
    (Array.for_all (fun c -> c > 0) r.Core.Resilient.completion)

let test_injector_run_budget () =
  (* every port dead for a long stretch: the greedy policy can only idle *)
  let plan =
    Fault_plan.make
      [ Fault_plan.Port_down { port = 0; from_ = 0; until = 1000 };
        Fault_plan.Port_down { port = 1; from_ = 0; until = 1000 };
      ]
  in
  (try
     ignore
       (Core.Resilient.run
          ~config:{ arrival_config with Core.Resilient.max_slots = 5 }
          ~plan (fig1_instance 1));
     Alcotest.fail "expected Failure"
   with Failure _ -> ())

(* ---------- audit ---------- *)

let test_audit_certifies_clean_run () =
  let plan = sample_plan () in
  let a =
    transcript ~ports:2
      [ [ t 0 0 0 ];
        [ t 1 0 0 ];
        (* slot 2: port 0 down, only port 1 traffic; link (1,1) usable *)
        [ t 1 1 0 ];
      ]
  in
  (match Audit.check ~plan a with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("clean log rejected: " ^ m))

let test_audit_catches_violations () =
  let plan = sample_plan () in
  let expect_error label a =
    match Audit.check ~plan a with
    | Error _ -> ()
    | Ok () -> Alcotest.fail (label ^ ": violation not caught")
  in
  (* dead port: port 0 is down during [2, 4) *)
  expect_error "dead port"
    (transcript ~ports:2 [ []; []; [ t 0 1 0 ] ]);
  (* degraded link (1,1) used off its duty cycle at slot 1 *)
  expect_error "link duty cycle"
    (transcript ~ports:2 [ []; [ t 1 1 0 ] ]);
  (* matching violation independent of the plan: ingress used twice *)
  expect_error "double-booked ingress"
    (transcript ~ports:2 [ [ t 0 0 0; t 0 1 0 ] ]);
  (* port outside the switch *)
  expect_error "port out of range"
    (transcript ~ports:2 [ [ t 2 0 0 ] ])

let test_audit_incremental_matches_batch () =
  (* slot-by-slot certification must agree with the batch fold, surface
     the violation at the offending slot, and latch it *)
  let plan = sample_plan () in
  let ok_rec = [ t 1 0 0 ] and bad_rec = [ t 0 1 0 ] in
  let batch =
    Audit.check ~plan (transcript ~ports:2 [ ok_rec; ok_rec; bad_rec ])
  in
  let c = Audit.checker ~plan ~ports:2 () in
  (match Audit.feed c ok_rec with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("slot 0 rejected: " ^ m));
  (match Audit.feed c ok_rec with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("slot 1 rejected: " ^ m));
  check_int "checked slots" 2 (Audit.checked_slots c);
  Alcotest.(check bool) "no error yet" true (Audit.checker_error c = None);
  let msg =
    match Audit.feed c bad_rec with
    | Ok () -> Alcotest.fail "dead port not caught incrementally"
    | Error m -> m
  in
  Alcotest.(check bool) "offending slot named" true
    (Astring.String.is_infix ~affix:"slot 2" msg);
  (match batch with
  | Ok () -> Alcotest.fail "batch check missed the violation"
  | Error m -> Alcotest.(check string) "batch = incremental" m msg);
  (* latched: a later clean slot still reports the first violation *)
  (match Audit.feed c ok_rec with
  | Ok () -> Alcotest.fail "error did not latch"
  | Error m -> Alcotest.(check string) "sticky first error" msg m);
  Alcotest.(check (option string)) "checker_error" (Some msg)
    (Audit.checker_error c);
  check_int "feeds counted once latched" 3 (Audit.checked_slots c)

let test_audit_checker_start_slot () =
  (* the same slot is legal at plan-time 0 and illegal at plan-time 2:
     start_slot shifts the epoch-local transcript into plan time *)
  let plan = sample_plan () in
  let r = [ t 0 0 0 ] in
  let at0 = Audit.checker ~plan ~ports:2 () in
  (match Audit.feed at0 r with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("legal at slot 0: " ^ m));
  let at2 = Audit.checker ~start_slot:2 ~plan ~ports:2 () in
  (match Audit.feed at2 r with
  | Ok () -> Alcotest.fail "port 0 down at plan-time 2, not caught"
  | Error m ->
    Alcotest.(check bool) "plan-time slot named" true
      (Astring.String.is_infix ~affix:"slot 2" m))

let test_audit_checker_validation () =
  let plan = sample_plan () in
  List.iter
    (fun (label, f) ->
      try
        ignore (f ());
        Alcotest.fail (label ^ ": expected Invalid_argument")
      with Invalid_argument _ -> ())
    [ ("bad ports", fun () -> Audit.checker ~plan ~ports:0 ());
      ( "negative start",
        fun () -> Audit.checker ~start_slot:(-1) ~plan ~ports:2 () );
      ( "net over other ports",
        fun () -> Audit.checker ~net:net2 ~plan ~ports:3 () );
    ]

let test_audit_core_cap_violation () =
  let plan =
    Fault_plan.make
      [ Fault_plan.Core_degraded { from_ = 0; until = 5; capacity = 1 } ]
  in
  let a = transcript ~ports:2 [ [ t 0 0 0; t 1 1 0 ] ] in
  (match Audit.check ~plan a with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "core-cap violation not caught");
  (* on a two-tier net only core-crossing transfers count: one inter-rack
     plus one rack-local transfer fits a degraded core of 1, two
     inter-rack transfers do not *)
  let net = Net.two_tier ~ports:4 ~rack_size:2 ~core_capacity:2 in
  let log transfers = transcript ~ports:4 [ transfers ] in
  (match Audit.check ~net ~plan (log [ t 0 2 0; t 2 3 0 ]) with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("rack-local transfer charged to the core: " ^ m));
  match Audit.check ~net ~plan (log [ t 0 2 0; t 1 3 0 ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "two-tier core-cap violation not caught"

(* ---------- resilient scheduling ---------- *)

let small_instance () =
  let mk id release weight rows =
    { Workload.Instance.id; release; weight; demand = Mat.of_arrays rows }
  in
  Workload.Instance.make ~ports:3
    [ mk 0 0 2.0 [| [| 2; 1; 0 |]; [| 0; 2; 1 |]; [| 1; 0; 2 |] |];
      mk 1 1 1.0 [| [| 0; 2; 1 |]; [| 1; 0; 0 |]; [| 0; 1; 2 |] |];
      mk 2 3 3.0 [| [| 1; 0; 0 |]; [| 0; 1; 0 |]; [| 0; 0; 1 |] |];
    ]

let det_config primary =
  { Core.Resilient.default_config with
    Core.Resilient.primary;
    lp_deadline = None;
    lp_max_iterations = 50_000;
  }

let test_resilient_fault_free () =
  let r = Core.Resilient.run ~config:(det_config Core.Resilient.Lp)
      (small_instance ())
  in
  Alcotest.(check bool) "positive twct" true (r.Core.Resilient.twct > 0.0);
  check_int "all slots from the lp tier"
    r.Core.Resilient.slots
    (List.assoc Core.Resilient.Lp r.Core.Resilient.tier_slots);
  check_int "no lp failures" 0 r.Core.Resilient.lp_failures;
  (match Audit.check ~plan:Fault_plan.empty r.Core.Resilient.audit with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("audit failed: " ^ m))

let test_resilient_completes_under_faults () =
  let inst = small_instance () in
  let plan =
    Fault_plan.random ~intensity:1.0 ~ports:3 ~coflows:3 ~horizon:12
      (Random.State.make [| 42 |])
  in
  let baseline = Core.Resilient.run ~config:(det_config Core.Resilient.Lp) inst in
  let faulted =
    Core.Resilient.run ~config:(det_config Core.Resilient.Lp) ~plan inst
  in
  Alcotest.(check bool) "every coflow completes" true
    (Array.for_all (fun c -> c > 0) faulted.Core.Resilient.completion);
  Alcotest.(check bool) "faults cannot speed up the schedule" true
    (faulted.Core.Resilient.twct >= baseline.Core.Resilient.twct -. 1e-9);
  (match Audit.check ~plan faulted.Core.Resilient.audit with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("audit failed: " ^ m))

let test_resilient_deterministic_replay () =
  (* acceptance criterion: a seeded plan replayed twice produces
     byte-identical transcripts and identical schedules *)
  let inst = small_instance () in
  let plan () =
    Fault_plan.random ~intensity:1.5 ~ports:3 ~coflows:3 ~horizon:12
      (Random.State.make [| 7; 0xFA17 |])
  in
  let run () =
    Core.Resilient.run ~config:(det_config Core.Resilient.Lp) ~plan:(plan ())
      inst
  in
  let a = run () and b = run () in
  Alcotest.(check string) "byte-identical transcripts"
    (Recorder.to_csv a.Core.Resilient.audit)
    (Recorder.to_csv b.Core.Resilient.audit);
  Alcotest.(check (array int)) "identical completions"
    a.Core.Resilient.completion b.Core.Resilient.completion;
  Alcotest.(check (float 0.0)) "identical twct" a.Core.Resilient.twct
    b.Core.Resilient.twct

let test_resilient_warm_start_saves_pivots () =
  (* acceptance criterion: with basis reuse across re-planning rounds the
     loop spends measurably fewer total simplex pivots than cold-starting
     every residual LP, at the same schedule quality *)
  let inst =
    Workload.Synthetic.uniform ~density:0.5 ~max_size:4 ~ports:4 ~coflows:12
      (Random.State.make [| 16; 0xFA17 |])
  in
  let plan =
    Fault_plan.random ~intensity:1.0 ~ports:4 ~coflows:12 ~horizon:40
      (Random.State.make [| 16; 0xFA17; 1 |])
  in
  let run lp_warm_start =
    Core.Resilient.run
      ~config:{ (det_config Core.Resilient.Lp) with Core.Resilient.lp_warm_start }
      ~plan inst
  in
  let cold = run false and warm = run true in
  Alcotest.(check bool) "several re-planning rounds" true
    (cold.Core.Resilient.replans > 1);
  check_int "same rounds either way" cold.Core.Resilient.replans
    warm.Core.Resilient.replans;
  Alcotest.(check (float 1e-9)) "same twct" cold.Core.Resilient.twct
    warm.Core.Resilient.twct;
  Alcotest.(check bool)
    (Printf.sprintf "warm pivots (%d) < cold pivots (%d)"
       warm.Core.Resilient.lp_iterations cold.Core.Resilient.lp_iterations)
    true
    (warm.Core.Resilient.lp_iterations < cold.Core.Resilient.lp_iterations)

let test_resilient_full_outage_degrades_to_arrival () =
  let plan =
    Fault_plan.make
      [ Fault_plan.Solver_outage { from_ = 0; until = 1000; full = true } ]
  in
  let r =
    Core.Resilient.run ~config:(det_config Core.Resilient.Lp) ~plan
      (small_instance ())
  in
  Alcotest.(check bool) "arrival tier used" true
    (List.assoc Core.Resilient.Arrival r.Core.Resilient.tier_slots > 0);
  check_int "lp never used during outage" 0
    (List.assoc Core.Resilient.Lp r.Core.Resilient.tier_slots)

let test_resilient_deadline_degrades_to_rho () =
  (* a zero-second deadline makes every LP attempt time out before its
     first pivot — deterministically — so the chain must land on H_rho *)
  let config =
    { (det_config Core.Resilient.Lp) with
      Core.Resilient.lp_deadline = Some 0.0;
      lp_retries = 0;
    }
  in
  let r = Core.Resilient.run ~config (small_instance ()) in
  Alcotest.(check bool) "lp failures recorded" true
    (r.Core.Resilient.lp_failures > 0);
  check_int "no lp slots" 0
    (List.assoc Core.Resilient.Lp r.Core.Resilient.tier_slots);
  Alcotest.(check bool) "rho served" true
    (List.assoc Core.Resilient.Rho r.Core.Resilient.tier_slots > 0)

let test_resilient_rho_primary_skips_lp () =
  let r =
    Core.Resilient.run ~config:(det_config Core.Resilient.Rho)
      (small_instance ())
  in
  check_int "no lp slots" 0
    (List.assoc Core.Resilient.Lp r.Core.Resilient.tier_slots);
  check_int "all slots rho" r.Core.Resilient.slots
    (List.assoc Core.Resilient.Rho r.Core.Resilient.tier_slots)

(* Everything a run reports, as one string: the transcript's CSV,
   completions, the TWCT's bits, slots, replans, LP failures, pivots,
   refactors and per-tier slots. *)
let resilient_fingerprint (r : Core.Resilient.result) =
  let b = Buffer.create 4096 in
  Buffer.add_string b (Recorder.to_csv r.Core.Resilient.audit);
  Array.iter (Printf.bprintf b "%d,") r.Core.Resilient.completion;
  Printf.bprintf b "|%Ld|%d|%d|%d|%d|%d|"
    (Int64.bits_of_float r.Core.Resilient.twct)
    r.Core.Resilient.slots r.Core.Resilient.replans
    r.Core.Resilient.lp_failures r.Core.Resilient.lp_iterations
    r.Core.Resilient.lp_refactors;
  List.iter (fun (_, n) -> Printf.bprintf b "%d," n) r.Core.Resilient.tier_slots;
  Buffer.contents b

(* Seeded instances with staggered releases and mixed weights, so the
   grid crosses release gaps as well as fault boundaries. *)
let digest_instance ~ports ~coflows seed =
  let st = Random.State.make [| seed; ports; coflows |] in
  let base =
    Workload.Synthetic.uniform ~density:0.5 ~max_size:4 ~ports ~coflows st
  in
  Workload.Instance.make ~ports
    (List.init coflows (fun k ->
         let weight = float_of_int (1 + Random.State.int st 4) in
         let release = Random.State.int st 8 in
         { (Workload.Instance.coflow base k) with
           Workload.Instance.release;
           weight;
         }))

(* One MD5 over 288 seeded runs: two sizes, four nets, three fault
   intensities, every primary tier, and the default config next to a
   3-pivot budget with no retry (so the LP tier fails and falls through).
   The pinned value was captured from the slot-by-slot serving loop, so
   any change in how the loop serves, plans or records shows here. *)
let test_resilient_digest () =
  let nets ports =
    [ Net.single ~ports;
      Net.two_tier ~ports ~rack_size:2 ~core_capacity:(ports / 3);
      Net.uniform ~ports ~rates:[ 4; 1 ];
      Net.uniform ~ports ~rates:[ 2; 1; 1 ];
    ]
  in
  let configs primary =
    let d = { Core.Resilient.default_config with Core.Resilient.primary } in
    [ d; { d with Core.Resilient.lp_max_iterations = 3; lp_retries = 0 } ]
  in
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun seed ->
      List.iter
        (fun (ports, coflows) ->
          let inst = digest_instance ~ports ~coflows seed in
          List.iter
            (fun net ->
              List.iter
                (fun intensity ->
                  let plan =
                    Fault_plan.random ~intensity ~fabrics:(Net.k net) ~ports
                      ~coflows ~horizon:(2 * coflows)
                      (Random.State.make [| seed; 0xD16; ports |])
                  in
                  List.iter
                    (fun primary ->
                      List.iter
                        (fun config ->
                          Buffer.add_string b
                            (resilient_fingerprint
                               (Core.Resilient.run ~config ~net ~plan inst)))
                        (configs primary))
                    Core.Resilient.all_tiers)
                [ 0.0; 1.0; 2.5 ])
            (nets ports))
        [ (3, 4); (6, 12) ])
    [ 1; 2 ];
  Alcotest.(check string) "digest of 288 runs" "7467cf433094832d53b78bee2761ecd9"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* A faulted run decides fewer times than it has slots: each decision is
   one batch step of the simulator, and the transcript and the tier
   counts still cover every slot. *)
let test_resilient_batches () =
  let inst = digest_instance ~ports:6 ~coflows:12 1 in
  let plan =
    Fault_plan.random ~intensity:1.0 ~ports:6 ~coflows:12 ~horizon:24
      (Random.State.make [| 1; 0xD16; 6 |])
  in
  Alcotest.(check bool) "faulted" false (Fault_plan.is_empty plan);
  let steps = Obs.Counter.make "sim.batch_steps" in
  let before = Obs.Counter.value steps in
  let r = Core.Resilient.run ~plan inst in
  let decisions = r.Core.Resilient.engine.Core.Engine.decisions in
  Alcotest.(check bool) "fewer decisions than slots" true
    (decisions < r.Core.Resilient.slots);
  check_int "one batch step per decision" decisions
    (Obs.Counter.value steps - before);
  check_int "transcript covers every slot" r.Core.Resilient.slots
    (Array.length r.Core.Resilient.audit.Recorder.slots);
  check_int "tier slots cover every slot" r.Core.Resilient.slots
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r.Core.Resilient.tier_slots)

let test_resilient_max_slots () =
  let plan =
    Fault_plan.make
      [ Fault_plan.Port_down { port = 0; from_ = 0; until = 100_000 };
        Fault_plan.Port_down { port = 1; from_ = 0; until = 100_000 };
        Fault_plan.Port_down { port = 2; from_ = 0; until = 100_000 };
      ]
  in
  let config =
    { (det_config Core.Resilient.Arrival) with Core.Resilient.max_slots = 10 }
  in
  (try
     ignore (Core.Resilient.run ~config ~plan (small_instance ()));
     Alcotest.fail "expected Failure"
   with Failure _ -> ())

(* ---------- the one greedy kernel under faults ---------- *)

(* The fault-aware greedy kernel the injector used to carry, kept as the
   oracle: an entry-by-entry scan of every released, unfinished coflow
   that asks the plan's list queries about each pair and spends one
   pooled core budget across fabrics, fastest fabric first.  Wherever its
   output is a valid slot, [Policy.greedy_matching ~faults] must return
   exactly the same list. *)
let oracle_greedy ~plan sim priority =
  let slot = Simulator.now sim in
  let m = Simulator.ports sim in
  let net = Simulator.net sim in
  let kf = Net.k net in
  let src_used = Array.make (kf * m) false
  and dst_used = Array.make (kf * m) false in
  let core_counts f i j =
    match Net.core_capacity net f with
    | None -> true
    | Some _ -> Net.crosses_core net ~fabric:f ~src:i ~dst:j
  in
  let base = ref 0 in
  for f = 0 to kf - 1 do
    base :=
      !base + match Net.core_capacity net f with Some c -> c | None -> m
  done;
  let core_left =
    ref
      (match Fault_plan.core_capacity plan ~slot with
      | Some c -> min !base c
      | None -> !base)
  in
  let taken = Hashtbl.create 64 in
  let transfers = ref [] in
  Array.iter
    (fun f ->
      if not (Fault_plan.fabric_down plan ~slot f) then
        let off = f * m in
        Array.iter
          (fun k ->
            if Simulator.released sim k && not (Simulator.is_complete sim k)
            then
              Simulator.iter_remaining sim k (fun i j _ ->
                  if
                    (not (src_used.(off + i) || dst_used.(off + j)))
                    && (not (Fault_plan.port_down plan ~slot i))
                    && (not (Fault_plan.port_down plan ~slot j))
                    && Fault_plan.link_usable plan ~slot ~src:i ~dst:j
                    && not (Hashtbl.mem taken (k, i, j))
                  then begin
                    let core = core_counts f i j in
                    if (not core) || !core_left > 0 then begin
                      src_used.(off + i) <- true;
                      dst_used.(off + j) <- true;
                      if core then decr core_left;
                      Hashtbl.replace taken (k, i, j) ();
                      transfers :=
                        { Simulator.src = i; dst = j; coflow = k; fabric = f }
                        :: !transfers
                    end
                  end))
          priority)
    (Net.by_rate net);
  !transfers

let shuffled st n =
  let a = Array.init n (fun k -> k) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* ports 1-20, or 61-64 across the 62-bit word boundary *)
let random_ports st =
  if Random.State.int st 4 = 0 then 61 + Random.State.int st 4
  else 1 + Random.State.int st 20

(* one switch, uniform fabrics, a two-tier fabric whose core binds, and
   mixed nets of up to three fabrics, blocking or not *)
let random_fault_net st m =
  let oversubscribed () =
    Net.fabric
      ~rack_size:(1 + Random.State.int st m)
      ~core_capacity:(Random.State.int st (1 + (m / 3)))
      (1 + Random.State.int st 3)
  in
  match Random.State.int st 4 with
  | 0 -> Net.single ~ports:m
  | 1 -> Net.uniform ~ports:m ~rates:[ 2; 1 ]
  | 2 ->
    Net.two_tier ~ports:m
      ~rack_size:(1 + Random.State.int st m)
      ~core_capacity:(Random.State.int st (1 + (m / 3)))
  | _ ->
    Net.make ~ports:m
      (List.init
         (1 + Random.State.int st 3)
         (fun _ ->
           if Random.State.bool st then oversubscribed ()
           else Net.fabric (1 + Random.State.int st 3)))

let prop_kernel_is_oracle =
  QCheck.Test.make ~name:"greedy_matching ~faults = the list-query oracle"
    ~count:200 QCheck.(int_range 0 1_000_000) (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = random_ports st and n = 1 + Random.State.int st 8 in
      let net = random_fault_net st m in
      let horizon = 4 + Random.State.int st 30 in
      let plan =
        Fault_plan.random
          ~intensity:(Random.State.float st 2.5)
          ~fabrics:(Net.k net) ~ports:m ~coflows:n ~horizon st
      in
      let density = 0.05 +. Random.State.float st 0.3 in
      let demands =
        List.init n (fun _ ->
            ( Random.State.int st 4,
              Mat.random ~density ~max_entry:3 st m ))
      in
      let inj = Injector.create ~net ~plan ~ports:m demands in
      let sim = Injector.sim inj and faults = Injector.faults inj in
      let priority = shuffled st n in
      let ok = ref true and budget = ref 150 in
      while !ok && !budget > 0 && not (Simulator.all_complete sim) do
        decr budget;
        Injector.tick inj;
        let want = oracle_greedy ~plan sim priority in
        let got = Core.Policy.greedy_matching ~faults sim ~priority in
        match Simulator.step sim want with
        | () -> if got <> want then ok := false
        | exception Simulator.Invalid_slot _ ->
          (* the oracle overfilled a fabric's core: the kernel's own slot
             must still be valid *)
          Simulator.step sim got
      done;
      !ok)

(* Truth table of the list queries at one slot, in the compiled state's
   shapes: ports-up words, off-duty words per row, dead fabrics, pooled
   budget. *)
let list_queries plan net slot =
  let m = Net.ports net in
  let words = Bits.words_for m in
  let bit b = 1 lsl Bits.bit_of b in
  let up = Array.make words 0 and off = Array.make (m * words) 0 in
  for p = 0 to m - 1 do
    if not (Fault_plan.port_down plan ~slot p) then
      up.(Bits.word_of p) <- up.(Bits.word_of p) lor bit p
  done;
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if not (Fault_plan.link_usable plan ~slot ~src:i ~dst:j) then
        off.((i * words) + Bits.word_of j) <-
          off.((i * words) + Bits.word_of j) lor bit j
    done
  done;
  let base = ref 0 in
  for f = 0 to Net.k net - 1 do
    base :=
      !base + match Net.core_capacity net f with Some c -> c | None -> m
  done;
  ( up,
    off,
    Array.init (Net.k net) (fun f -> Fault_plan.fabric_down plan ~slot f),
    match Fault_plan.core_capacity plan ~slot with
    | Some c -> min !base c
    | None -> !base )

let snapshot state net =
  let m = Net.ports net in
  let words = Bits.words_for m in
  ( Array.init words (Fault_plan.port_up_word state),
    Array.init (m * words) (fun x ->
        Fault_plan.off_duty_word state ~src:(x / words) (x mod words)),
    Array.init (Net.k net) (Fault_plan.fabric_dead state),
    Fault_plan.core_budget state )

let prop_compiled_state_is_list_queries =
  QCheck.Test.make ~name:"compiled fault state = the list queries"
    ~count:100 QCheck.(int_range 0 1_000_000) (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = random_ports st in
      let net = random_fault_net st m in
      (* [Fault_plan.random] draws over at least 8 slots *)
      let horizon = 8 + Random.State.int st 24 in
      let plan =
        Fault_plan.random
          ~intensity:(Random.State.float st 2.5)
          ~fabrics:(Net.k net) ~ports:m ~coflows:5 ~horizon st
      in
      let last = 2 * horizon in
      let truth = Array.init (last + 1) (list_queries plan net) in
      let state = Fault_plan.compile ~carried:every_pair ~coflows:5 plan net in
      let stragglers = Fault_plan.stragglers plan in
      (* every slot, in random order: the state matches the queries there
         and at every later slot of its window, and no straggler fires
         strictly inside the window *)
      Array.for_all
        (fun slot ->
          Fault_plan.refresh state ~slot;
          let snap = snapshot state net in
          let until = Fault_plan.stable_until state in
          let rec same q =
            q >= min until (last + 1) || (truth.(q) = snap && same (q + 1))
          in
          until > slot && same slot
          && List.for_all
               (fun (at, _, _) -> at <= slot || at >= until)
               stragglers)
        (shuffled st (last + 1))
      (* nothing is left to change once every fault has ended *)
      && (Fault_plan.refresh state ~slot:last;
          Fault_plan.stable_until state = max_int))

let test_plan_compiled_overlap () =
  (* two slowdowns of link (0, 1): the larger period rules, as in
     [link_period], from the slot the second one starts *)
  let plan =
    Fault_plan.make
      [ Fault_plan.Link_degraded
          { src = 0; dst = 1; from_ = 0; until = 12; period = 2 };
        Fault_plan.Link_degraded
          { src = 0; dst = 1; from_ = 4; until = 12; period = 3 };
      ]
  in
  let st =
    Fault_plan.compile ~carried:every_pair ~coflows:1 plan
      (Net.single ~ports:2)
  in
  for slot = 0 to 13 do
    Fault_plan.refresh st ~slot;
    Alcotest.(check bool)
      (Printf.sprintf "slot %d off duty" slot)
      (not (Fault_plan.link_usable plan ~slot ~src:0 ~dst:1))
      (Fault_plan.off_duty_word st ~src:0 0 land 0b10 <> 0)
  done;
  Fault_plan.refresh st ~slot:4;
  check_int "off at 4 until the next multiple of 3" 6
    (Fault_plan.stable_until st)

let rejected label sim transfers ~cap =
  match Simulator.step_batch sim transfers ~cap with
  | _ -> Alcotest.failf "%s: batch accepted" label
  | exception Simulator.Invalid_slot m ->
    Alcotest.(check bool) (label ^ ": names the fault-state change") true
      (Astring.String.is_infix ~affix:"crosses the fault-state change" m)

let test_injector_batch_crossing () =
  (* port 0 goes down at slot 3 *)
  let plan =
    Fault_plan.make [ Fault_plan.Port_down { port = 0; from_ = 3; until = 5 } ]
  in
  let d = Mat.of_arrays [| [| 9; 0 |]; [| 0; 9 |] |] in
  let inj = Injector.create ~plan ~ports:2 [ (0, d) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  check_int "stable until the outage" 3
    (Fault_plan.stable_until (Injector.faults inj));
  rejected "batch over the outage's start" sim [ t 0 0 0 ] ~cap:4;
  check_int "clock unchanged" 0 (Simulator.now sim);
  check_int "batch up to the outage" 3
    (Simulator.step_batch sim [ t 0 0 0 ] ~cap:3);
  Injector.tick inj;
  expect_invalid_slot "port down at its start" (fun () ->
      Simulator.step sim [ t 0 0 0 ]);
  (* link (0, 1) on a period-3 duty cycle: usable at 0, off at 1 and 2 *)
  let plan =
    Fault_plan.make
      [ Fault_plan.Link_degraded
          { src = 0; dst = 1; from_ = 0; until = 9; period = 3 };
      ]
  in
  let d = Mat.of_arrays [| [| 0; 9 |]; [| 0; 0 |] |] in
  let inj = Injector.create ~plan ~ports:2 [ (0, d) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  rejected "batch over an off-duty slot" sim [ t 0 1 0 ] ~cap:2;
  Simulator.step sim [ t 0 1 0 ];
  Injector.tick inj;
  check_int "off duty until the next multiple" 3
    (Fault_plan.stable_until (Injector.faults inj));
  check_int "idle batch" 2 (Simulator.step_batch sim [] ~cap:2);
  Injector.tick inj;
  rejected "batch from an on-duty slot" sim [ t 0 1 0 ] ~cap:2;
  Simulator.step sim [ t 0 1 0 ];
  check_int "two units moved" 7 (Simulator.remaining_total sim 0)

(* A slow link no coflow has demand on can change no decision, so the
   compiled state leaves it out and its duty flips end no batch; the
   same link carrying demand still does, and the audit still sees it. *)
let test_injector_uncarried_link () =
  let plan =
    Fault_plan.make
      [ Fault_plan.Link_degraded
          { src = 1; dst = 0; from_ = 0; until = 9; period = 3 };
      ]
  in
  let d = Mat.of_arrays [| [| 9; 0 |]; [| 0; 9 |] |] in
  let inj = Injector.create ~plan ~ports:2 [ (0, d) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  check_int "no change in sight" max_int
    (Fault_plan.stable_until (Injector.faults inj));
  (* across the flips at slots 1, 3, 4 and 6 *)
  check_int "batch across the flips" 7
    (Simulator.step_batch sim [ t 0 0 0; t 1 1 0 ] ~cap:7);
  check_int "batch served" 4 (Simulator.remaining_total sim 0);
  (match
     Audit.feed_many
       (Audit.checker ~plan ~ports:2 ())
       [ t 0 0 0; t 1 1 0 ] ~slots:7
   with
  | Ok () -> ()
  | Error m -> Alcotest.failf "batch off the slow link rejected: %s" m);
  (* the uncarried pair itself is still refused, by the simulator *)
  Injector.tick inj;
  expect_invalid_slot "no demand on (1, 0)" (fun () ->
      Simulator.step sim [ t 1 0 0 ]);
  let d = Mat.of_arrays [| [| 9; 0 |]; [| 9; 0 |] |] in
  let inj = Injector.create ~plan ~ports:2 [ (0, d) ] in
  let sim = Injector.sim inj in
  Injector.tick inj;
  check_int "carried: stable until the first flip" 1
    (Fault_plan.stable_until (Injector.faults inj));
  rejected "batch across a carried flip" sim [ t 0 0 0 ] ~cap:2

(* Two oversubscribed fabrics with one core crossing each: a single pooled
   budget of 2 would put both crossings on the first fabric. *)
let test_resilient_per_fabric_core_budget () =
  let net =
    Net.make ~ports:8
      [ Net.fabric ~rack_size:2 ~core_capacity:1 1;
        Net.fabric ~rack_size:2 ~core_capacity:1 1;
      ]
  in
  let d = Mat.make 8 in
  for i = 0 to 7 do
    for j = 0 to 7 do
      if i / 2 <> j / 2 then Mat.set d i j 1
    done
  done;
  let inst =
    Workload.Instance.make ~ports:8
      [ { Workload.Instance.id = 0; release = 0; weight = 1.0; demand = d } ]
  in
  let config =
    { Core.Resilient.default_config with
      Core.Resilient.primary = Core.Resilient.Rho
    }
  in
  List.iter
    (fun (label, plan) ->
      let r = Core.Resilient.run ~config ~net ~plan inst in
      Alcotest.(check bool) (label ^ ": completed") true
        (r.Core.Resilient.completion.(0) > 0);
      match Audit.check ~net ~plan r.Core.Resilient.audit with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: audit rejected: %s" label m)
    [ ("no faults", Fault_plan.empty);
      ( "random plan",
        Fault_plan.random ~intensity:1.0 ~fabrics:2 ~ports:8 ~coflows:1
          ~horizon:24 (Random.State.make [| 3 |]) );
    ]

let test_audit_feed_allocates_nothing () =
  (* ten events, none of which touches the four transfers at slot 0.. *)
  let plan =
    Fault_plan.make
      [ Fault_plan.Port_down { port = 7; from_ = 0; until = 5000 };
        Fault_plan.Port_down { port = 6; from_ = 2000; until = 3000 };
        Fault_plan.Link_degraded
          { src = 5; dst = 6; from_ = 0; until = 5000; period = 2 };
        Fault_plan.Link_degraded
          { src = 0; dst = 1; from_ = 4000; until = 5000; period = 3 };
        Fault_plan.Core_degraded { from_ = 0; until = 5000; capacity = 6 };
        Fault_plan.Straggler { coflow = 0; at = 9; factor = 2 };
        Fault_plan.Release_delay { coflow = 0; delay = 3 };
        Fault_plan.Solver_outage { from_ = 0; until = 5000; full = false };
        Fault_plan.Core_degraded { from_ = 3000; until = 4000; capacity = 2 };
        Fault_plan.Port_down { port = 5; from_ = 1500; until = 1600 };
      ]
  in
  let transfers = [ t 0 1 0; t 1 2 0; t 2 3 1; t 3 0 1 ] in
  let c = Audit.checker ~plan ~ports:8 () in
  let feed () =
    match Audit.feed c transfers with
    | Ok () -> ()
    | Error m -> Alcotest.failf "valid slot rejected: %s" m
  in
  feed ();
  let before = Gc.minor_words () in
  for _ = 1 to 1000 do
    feed ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "1000 feeds allocate %.0f < 1000 words" words)
    true (words < 1000.0);
  (* a batch certifies window by window: port 7, which no transfer uses,
     is down 5 slots in every 10, so each 19-slot batch crosses three or
     four window edges *)
  let plan =
    Fault_plan.make
      (List.init 200 (fun k ->
           Fault_plan.Port_down
             { port = 7; from_ = 10 * k; until = (10 * k) + 5 }))
  in
  let c = Audit.checker ~plan ~ports:8 () in
  let feed_many () =
    match Audit.feed_many c transfers ~slots:19 with
    | Ok () -> ()
    | Error m -> Alcotest.failf "valid batch rejected: %s" m
  in
  feed_many ();
  let before = Gc.minor_words () in
  for _ = 1 to 99 do
    feed_many ()
  done;
  let words = Gc.minor_words () -. before in
  check_int "every slot certified" 1900 (Audit.checked_slots c);
  Alcotest.(check bool)
    (Printf.sprintf "99 batches allocate %.0f < 100 words" words)
    true (words < 100.0)

(* Random transfers on [net]: a partial matching per fabric, and now and
   then a violation of the matching constraints (a port or fabric out of
   range, a port used twice, one entry on two fabrics). *)
let random_transfers st net =
  let m = Net.ports net and kf = Net.k net in
  let ts =
    List.concat
      (List.init kf (fun f ->
           let dst = shuffled st m in
           List.filter_map
             (fun i ->
               if Random.State.int st 3 = 0 then None
               else Some (tf i dst.(i) (Random.State.int st 3) f))
             (List.init m Fun.id)))
  in
  match (Random.State.int st 6, ts) with
  | 0, _ ->
    tf
      (Random.State.int st (m + 1))
      (Random.State.int st (m + 1))
      0
      (Random.State.int st (kf + 1))
    :: ts
  | 1, { Simulator.src; dst; coflow; fabric } :: _ ->
    tf src dst coflow ((fabric + 1) mod (kf + 1)) :: ts
  | _ -> ts

let prop_feed_many_is_feeds =
  QCheck.Test.make ~name:"feed_many = n feeds" ~count:1000
    QCheck.(int_range 0 1_000_000) (fun seed ->
      let st = Random.State.make [| seed |] in
      let m = 1 + Random.State.int st 8 in
      let net = random_fault_net st m in
      let horizon = 8 + Random.State.int st 40 in
      let batches =
        List.init
          (1 + Random.State.int st 6)
          (fun _ -> (random_transfers st net, 1 + Random.State.int st 40))
      in
      (* slow links, overlapping on one pair, on pairs the batches serve *)
      let served =
        List.concat_map
          (fun (ts, _) ->
            List.filter_map
              (fun { Simulator.src; dst; _ } ->
                if src < m && dst < m then Some (src, dst) else None)
              ts)
          batches
      in
      let slow =
        match served with
        | [] -> []
        | _ ->
          let src, dst =
            List.nth served (Random.State.int st (List.length served))
          in
          List.init (Random.State.int st 4) (fun _ ->
              let from_ = Random.State.int st horizon in
              Fault_plan.Link_degraded
                { src;
                  dst;
                  from_;
                  until = from_ + 1 + Random.State.int st horizon;
                  period = 2 + Random.State.int st 4;
                })
      in
      let plan =
        Fault_plan.make
          (Fault_plan.events
             (Fault_plan.random
                ~intensity:(Random.State.float st 2.5)
                ~fabrics:(Net.k net) ~ports:m ~coflows:3 ~horizon st)
          @ slow)
      in
      let start_slot = Random.State.int st horizon in
      let batched = Audit.checker ~net ~start_slot ~plan ~ports:m () in
      let oracle = Audit.checker ~net ~start_slot ~plan ~ports:m () in
      List.for_all
        (fun (transfers, n) ->
          let want =
            List.fold_left
              (fun acc _ ->
                match (acc, Audit.feed oracle transfers) with
                | Ok (), r -> r
                | e, _ -> e)
              (Ok ()) (List.init n Fun.id)
          in
          Audit.feed_many batched transfers ~slots:n = want
          && Audit.checked_slots batched = Audit.checked_slots oracle
          && Audit.checker_error batched = Audit.checker_error oracle)
        batches)

(* ---------- lp deadline plumbing ---------- *)

let test_simplex_zero_deadline () =
  (* deadline 0: the solver must abort before the first pivot, and do so
     deterministically *)
  let open Lp in
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Ge 1.0);
  Model.minimize m [ (1.0, x); (2.0, y) ];
  let s = Revised_simplex.solve ~deadline:0.0 m in
  Alcotest.(check string) "time-limit status" "time-limit"
    (Solution.status_to_string s.Solution.status);
  let ok = Revised_simplex.solve m in
  Alcotest.(check string) "no deadline still optimal" "optimal"
    (Solution.status_to_string ok.Solution.status);
  expect_invalid_arg "negative deadline" (fun () ->
      ignore (Revised_simplex.solve ~deadline:(-1.0) m))

let () =
  Alcotest.run "faults"
    [ ( "plan",
        [ Alcotest.test_case "validate" `Quick test_plan_validate;
          Alcotest.test_case "queries" `Quick test_plan_queries;
          Alcotest.test_case "random plans" `Quick test_plan_random;
          Alcotest.test_case "fabric down" `Quick test_plan_fabric_down;
          Alcotest.test_case "random fabric outages" `Quick
            test_plan_random_fabrics;
          QCheck_alcotest.to_alcotest prop_compiled_state_is_list_queries;
          Alcotest.test_case "compiled overlapping slowdowns" `Quick
            test_plan_compiled_overlap;
        ] );
      ( "injector",
        [ Alcotest.test_case "dead port" `Quick test_injector_dead_port;
          Alcotest.test_case "link duty cycle" `Quick
            test_injector_link_duty_cycle;
          Alcotest.test_case "aggregate core cap" `Quick
            test_injector_aggregate_core_cap;
          Alcotest.test_case "fabric core cap" `Quick
            test_injector_fabric_core_cap;
          Alcotest.test_case "straggler tick" `Quick
            test_injector_straggler_tick;
          Alcotest.test_case "release delay" `Quick
            test_injector_release_delay;
          Alcotest.test_case "bad plan rejected" `Quick
            test_injector_rejects_bad_plan;
          Alcotest.test_case "straggler overflow" `Quick
            test_injector_straggler_overflow;
          Alcotest.test_case "run completes" `Quick
            test_injector_run_completes;
          Alcotest.test_case "run budget" `Quick test_injector_run_budget;
          Alcotest.test_case "fabric down" `Quick test_injector_fabric_down;
          Alcotest.test_case "net port mismatch" `Quick
            test_injector_net_port_mismatch;
          Alcotest.test_case "batch crossing a fault change" `Quick
            test_injector_batch_crossing;
          QCheck_alcotest.to_alcotest prop_kernel_is_oracle;
          Alcotest.test_case "batch across an uncarried slow link" `Quick
            test_injector_uncarried_link;
        ] );
      ( "audit",
        [ Alcotest.test_case "clean run certified" `Quick
            test_audit_certifies_clean_run;
          Alcotest.test_case "violations caught" `Quick
            test_audit_catches_violations;
          Alcotest.test_case "incremental matches batch" `Quick
            test_audit_incremental_matches_batch;
          Alcotest.test_case "checker start slot" `Quick
            test_audit_checker_start_slot;
          Alcotest.test_case "checker validation" `Quick
            test_audit_checker_validation;
          Alcotest.test_case "core cap violation" `Quick
            test_audit_core_cap_violation;
          Alcotest.test_case "fabric constraints" `Quick
            test_audit_fabric_constraints;
          Alcotest.test_case "feed allocates nothing" `Quick
            test_audit_feed_allocates_nothing;
          QCheck_alcotest.to_alcotest prop_feed_many_is_feeds;
        ] );
      ( "resilient",
        [ Alcotest.test_case "fault-free all-lp" `Quick
            test_resilient_fault_free;
          Alcotest.test_case "completes under faults" `Quick
            test_resilient_completes_under_faults;
          Alcotest.test_case "deterministic replay" `Quick
            test_resilient_deterministic_replay;
          Alcotest.test_case "warm start saves pivots" `Quick
            test_resilient_warm_start_saves_pivots;
          Alcotest.test_case "full outage -> arrival" `Quick
            test_resilient_full_outage_degrades_to_arrival;
          Alcotest.test_case "deadline -> rho" `Quick
            test_resilient_deadline_degrades_to_rho;
          Alcotest.test_case "rho primary" `Quick
            test_resilient_rho_primary_skips_lp;
          Alcotest.test_case "max_slots" `Quick test_resilient_max_slots;
          Alcotest.test_case "fabric down replans" `Quick
            test_resilient_fabric_down_replans;
          Alcotest.test_case "per-fabric core budget" `Quick
            test_resilient_per_fabric_core_budget;
          Alcotest.test_case "digest" `Quick test_resilient_digest;
          Alcotest.test_case "batches" `Quick test_resilient_batches;
        ] );
      ( "lp-deadline",
        [ Alcotest.test_case "zero deadline" `Quick test_simplex_zero_deadline ]
      );
    ]

(* Tests for the Policy/Engine layer: golden equivalence against the
   pre-refactor slot loops (values captured at the parent commit on a fixed
   fb-like instance), jobs-count determinism of Engine.run_many, and the
   shared greedy-matching helper: its invariants, its exact transfers
   against an entry-by-entry scan, the live priority view, its allocation
   and its work counter. *)

open Workload
open Core

let check_int = Alcotest.(check int)

(* The exact workload the pre-refactor goldens below were captured on. *)
let golden_instance =
  lazy
    (let st = Random.State.make [| 424242 |] in
     let inst = Fb_like.generate ~ports:10 ~coflows:40 st in
     let n = Instance.num_coflows inst in
     let wst = Random.State.make [| 424243 |] in
     Instance.with_weights inst (Weights.random_permutation wst n))

let check_result name ~twct ~slots ?matchings (r : Scheduler.result) =
  Alcotest.(check (float 0.0)) (name ^ " twct") twct r.Scheduler.twct;
  check_int (name ^ " slots") slots r.Scheduler.slots;
  match matchings with
  | Some m -> check_int (name ^ " matchings") m r.Scheduler.matchings
  | None -> ()

(* H_LP x case (d): the full pipeline (LP, ordering, grouping, BvN,
   backfilling) through the engine must reproduce the legacy loop. *)
let test_golden_hlp_case_d () =
  let inst = Lazy.force golden_instance in
  let lp = Lp_relax.solve_interval inst in
  let r =
    Scheduler.run ~case:Scheduler.Group_backfill inst (Ordering.by_lp lp)
  in
  check_result "hlp_d" ~twct:262389.0 ~slots:2347 ~matchings:113 r;
  Alcotest.(check (float 1e-6)) "hlp_d utilization" 0.265190
    r.Scheduler.utilization

let test_golden_baselines () =
  let inst = Lazy.force golden_instance in
  check_result "greedy_hrho" ~twct:150715.0 ~slots:1395
    (Baselines.greedy inst (Ordering.by_load_over_weight inst));
  check_result "fifo" ~twct:464505.0 ~slots:1390 (Baselines.fifo inst);
  check_result "round_robin" ~twct:319070.0 ~slots:1390
    (Baselines.round_robin inst);
  check_result "max_weight" ~twct:148734.0 ~slots:1401
    (Baselines.max_weight inst);
  check_result "sebf_madd" ~twct:155810.0 ~slots:1390
    (Baselines.sebf_madd inst)

let test_golden_online () =
  let inst = Lazy.force golden_instance in
  check_result "online wb" ~twct:150535.0 ~slots:1391
    (Online.run Online.Weighted_bottleneck inst);
  check_result "online wr" ~twct:150277.0 ~slots:1396
    (Online.run Online.Weighted_remaining inst);
  check_result "online fcfs" ~twct:464505.0 ~slots:1390
    (Online.run Online.Arrival_order inst)

let test_golden_decentralized () =
  let inst = Lazy.force golden_instance in
  check_result "dec sebf" ~twct:182210.0 ~slots:1462
    (Decentralized.run ~rounds:3 Decentralized.Local_sebf inst);
  check_result "dec fifo" ~twct:518380.0 ~slots:1429
    (Decentralized.run ~rounds:3 Decentralized.Local_fifo inst)

let test_golden_resilient () =
  let inst = Lazy.force golden_instance in
  let r = Resilient.run inst in
  Alcotest.(check (float 0.0)) "resilient twct" 151856.0 r.Resilient.twct;
  check_int "resilient slots" 1397 r.Resilient.slots;
  check_int "resilient replans" 1 r.Resilient.replans

(* One MD5 over 230 seeded runs: fb-like and synthetic instances at five
   port counts (70 and 130 cross the 62-bit word boundary, 130 needs three
   words), three nets (two fabrics at different rates, and a two-tier
   fabric whose core budget binds) and eight policies: greedy under H_rho
   and H_A, every scheduler case, round robin, and SEBF+MADD, whose
   top-up extends a partial slot through [greedy_matching ~init].
   SEBF+MADD's credit matching ignores a core budget, so it runs on the
   two non-blocking nets only.  Each run adds its completion vector,
   slots, decisions and the bits of its TWCT, so a changed decision,
   batch length or completion shows here; every run's decisions must
   equal its [sim.batch_steps] delta. *)
let test_schedule_digest () =
  let steps = Obs.Counter.make "sim.batch_steps" in
  let instances m =
    let coflows = if m > 12 then 5 else 12 in
    let st = Random.State.make [| m; 0x5D |] in
    (* short flows and sparse rows keep the 130-port runs quick *)
    let params =
      { (Fb_like.default_params ~ports:m ~coflows) with
        Fb_like.long_mean = 4;
        long_cap = 8;
      }
    in
    let fb =
      Fb_like.generate_with_arrivals ~params ~mean_gap:2 ~ports:m ~coflows st
    in
    let syn =
      Synthetic.uniform
        ~density:(if m > 12 then 0.05 else 0.3)
        ~max_size:5 ~ports:m ~coflows st
    in
    let reweigh inst =
      Instance.make ~ports:m
        (List.init coflows (fun k ->
             { (Instance.coflow inst k) with
               Instance.release = Random.State.int st 6;
               weight = float_of_int (1 + Random.State.int st 4);
             }))
    in
    [ Instance.with_weights fb (Weights.random_permutation st coflows);
      reweigh syn;
    ]
  in
  let nets m =
    [ Switchsim.Net.single ~ports:m;
      Switchsim.Net.uniform ~ports:m ~rates:[ 2; 1 ];
      Switchsim.Net.two_tier ~ports:m
        ~rack_size:(max 1 (m / 4))
        ~core_capacity:(max 1 (m / 8));
    ]
  in
  let policies inst net =
    let n = Instance.num_coflows inst in
    let hrho = Ordering.by_load_over_weight inst in
    Baselines.greedy_policy hrho
    :: Baselines.greedy_policy (Ordering.arrival inst)
    :: List.map
         (fun case -> Scheduler.case_policy ~case inst hrho)
         Scheduler.all_cases
    @ Baselines.round_robin_policy n
      ::
      (if Switchsim.Net.core_capacity net 0 = None then
         [ Baselines.sebf_madd_policy ~coflows:n ]
       else [])
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun m ->
      List.iter
        (fun inst ->
          List.iter
            (fun net ->
              List.iter
                (fun policy ->
                  let sim =
                    Switchsim.Simulator.create ~net ~ports:m
                      (Instance.demands inst)
                  in
                  let before = Obs.Counter.value steps in
                  let r = Engine.run ~sim inst policy in
                  check_int "decisions = batch steps" r.Engine.decisions
                    (Obs.Counter.value steps - before);
                  Array.iter
                    (fun c -> Buffer.add_string b (Printf.sprintf "%d," c))
                    r.Engine.completion;
                  Buffer.add_string b
                    (Printf.sprintf "|%d|%d|%Ld\n" r.Engine.slots
                       r.Engine.decisions
                       (Int64.bits_of_float r.Engine.twct)))
                (policies inst net))
            (nets m))
        (instances m))
    [ 3; 12; 64; 70; 130 ];
  Alcotest.(check string)
    "digest of 230 runs" "1e8d34a4f1b3d7a0da26fc93b37c6fdf"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* The loop counts its own decisions: one per slot for the slot-by-slot
   reference, fewer for a policy whose batches cover several slots. *)
let test_decisions_counted () =
  let inst = Lazy.force golden_instance in
  let hrho = Ordering.by_load_over_weight inst in
  List.iter
    (fun (name, policy) ->
      let batched = Engine.run inst policy in
      let unbatched = Engine.run inst (Policy.unbatched policy) in
      check_int (name ^ " same slots") unbatched.Engine.slots
        batched.Engine.slots;
      check_int (name ^ " unbatched: one decision per slot")
        unbatched.Engine.slots unbatched.Engine.decisions;
      Alcotest.(check bool)
        (name ^ " batched: fewer decisions than slots")
        true
        (batched.Engine.decisions < batched.Engine.slots))
    [ ("greedy", Baselines.greedy_policy hrho);
      ("case d", Scheduler.case_policy ~case:Scheduler.Group_backfill inst hrho);
    ]

(* [Policy.recorded] keeps a run's transcript: the [n] slots a batched
   decision covers are the decisions its slot-by-slot twin takes, so both
   transcripts write the same CSV, and each replays on a fresh simulator
   to its run's completions. *)
let test_recorded () =
  let inst = Lazy.force golden_instance in
  let hrho = Ordering.by_load_over_weight inst in
  let record policy =
    let log = Switchsim.Recorder.log ~ports:(Instance.ports inst) in
    let r = Engine.run inst (Policy.recorded log policy) in
    (r, Switchsim.Recorder.contents log)
  in
  let replays name (r : Engine.result) transcript =
    let sim = Switchsim.Recorder.replay transcript (Instance.demands inst) in
    Alcotest.(check (array int))
      (name ^ " replays to the run's completions")
      r.Engine.completion
      (Array.init (Instance.num_coflows inst)
         (Switchsim.Simulator.completion_time_exn sim))
  in
  List.iter
    (fun (name, policy) ->
      let batched, b = record policy in
      let unbatched, u = record (Policy.unbatched policy) in
      Alcotest.(check bool)
        (name ^ " batches")
        true
        (batched.Engine.decisions < batched.Engine.slots);
      check_int (name ^ " one entry per slot") batched.Engine.slots
        (Array.length b.Switchsim.Recorder.slots);
      Alcotest.(check string)
        (name ^ " batched transcript = slot by slot")
        (Switchsim.Recorder.to_csv u)
        (Switchsim.Recorder.to_csv b);
      replays (name ^ " batched") batched b;
      replays (name ^ " unbatched") unbatched u)
    [ ("greedy", Baselines.greedy_policy hrho);
      ("case d", Scheduler.case_policy ~case:Scheduler.Group_backfill inst hrho);
    ]

(* ---------- run_many determinism ---------- *)

(* The same job list must produce identical results AND an identical
   merged slot-event stream at any job count. *)
let jobs_fixture () =
  let inst = Lazy.force golden_instance in
  let order = Ordering.by_load_over_weight inst in
  List.map
    (fun case () -> Scheduler.run ~case inst order)
    Scheduler.all_cases
  @ [ (fun () -> Baselines.fifo inst);
      (fun () -> Online.run Online.Weighted_bottleneck inst);
    ]

let run_at ~jobs =
  Obs.Events.set_enabled true;
  Obs.Events.reset ();
  Fun.protect ~finally:(fun () ->
      Obs.Events.reset ();
      Obs.Events.set_enabled false)
  @@ fun () ->
  let results = Engine.run_many ~jobs (jobs_fixture ()) in
  (results, Obs.Events.to_list ())

let test_run_many_jobs_invariant () =
  let r1, e1 = run_at ~jobs:1 in
  let r4, e4 = run_at ~jobs:4 in
  check_int "result count" (List.length r1) (List.length r4);
  List.iteri
    (fun i ((a : Scheduler.result), (b : Scheduler.result)) ->
      let name = Printf.sprintf "job %d" i in
      Alcotest.(check (float 0.0)) (name ^ " twct") a.Scheduler.twct
        b.Scheduler.twct;
      check_int (name ^ " slots") a.Scheduler.slots b.Scheduler.slots;
      check_int (name ^ " matchings") a.Scheduler.matchings
        b.Scheduler.matchings;
      Alcotest.(check (array int)) (name ^ " completions")
        a.Scheduler.completion b.Scheduler.completion)
    (List.combine r1 r4);
  check_int "event count" (List.length e1) (List.length e4);
  Alcotest.(check bool) "event streams identical" true (e1 = e4)

let test_run_many_rejects_bad_jobs () =
  try
    ignore (Engine.run_many ~jobs:0 [ (fun () -> ()) ]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

let test_run_many_reraises () =
  (* a failing job must re-raise at the join, at its own index *)
  try
    ignore
      (Engine.run_many ~jobs:2
         [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]);
    Alcotest.fail "expected Failure"
  with Failure m -> Alcotest.(check string) "message" "boom" m

(* ---------- greedy matching helper ---------- *)

let random_instance ~ports ~coflows seed =
  let st = Random.State.make [| seed |] in
  Synthetic.uniform ~ports ~coflows ~density:0.4 ~max_size:4 st

let prop_greedy_matching_valid_and_maximal =
  QCheck.Test.make ~name:"Policy.greedy_matching is a maximal matching"
    ~count:80
    QCheck.(triple (int_range 2 6) (int_range 1 6) (int_range 0 100_000))
    (fun (ports, coflows, seed) ->
      let inst = random_instance ~ports ~coflows seed in
      let sim =
        Switchsim.Simulator.create ~ports (Instance.demands inst)
      in
      let priority = Array.init coflows (fun k -> k) in
      let ts = Policy.greedy_matching sim ~priority in
      let src_used = Array.make ports false in
      let dst_used = Array.make ports false in
      List.iter
        (fun { Switchsim.Simulator.src; dst; coflow; _ } ->
          (* a matching: each port claimed at most once *)
          assert (not src_used.(src));
          assert (not dst_used.(dst));
          src_used.(src) <- true;
          dst_used.(dst) <- true;
          (* backed by real demand from a released coflow *)
          assert (Switchsim.Simulator.remaining_at sim coflow src dst > 0))
        ts;
      (* maximal: no free pair still has demand from a released, unfinished
         coflow *)
      Array.iter
        (fun k ->
          if
            Switchsim.Simulator.released sim k
            && not (Switchsim.Simulator.is_complete sim k)
          then
            Switchsim.Simulator.iter_remaining sim k (fun i j _ ->
                assert (src_used.(i) || dst_used.(j))))
        priority;
      true)

(* The greedy sweep spelled out entry by entry: fabrics fastest first,
   then priority order, then source ascending, then destination
   ascending; one claim per (coflow, src) row per fabric, no entry
   claimed on two fabrics, and once a fabric's core budget is spent only
   rack-local pairs.  New transfers are consed onto [init]. *)
let naive_greedy ?(init = []) sim ~priority =
  let open Switchsim in
  let m = Simulator.ports sim and net = Simulator.net sim in
  let kf = Net.k net in
  let src_used = Array.make_matrix kf m false in
  let dst_used = Array.make_matrix kf m false in
  let core_left =
    Array.init kf (fun f ->
        match Net.core_capacity net f with None -> max_int | Some c -> c)
  in
  let taken = Hashtbl.create 16 in
  let claim ({ Simulator.src; dst; coflow; fabric = f } : Simulator.transfer)
      =
    src_used.(f).(src) <- true;
    dst_used.(f).(dst) <- true;
    if Net.crosses_core net ~fabric:f ~src ~dst then
      core_left.(f) <- core_left.(f) - 1;
    Hashtbl.replace taken (coflow, src, dst) ()
  in
  List.iter claim init;
  let acc = ref init in
  Array.iter
    (fun f ->
      Array.iter
        (fun k ->
          if Simulator.released sim k && not (Simulator.is_complete sim k)
          then
            for i = 0 to m - 1 do
              for j = 0 to m - 1 do
                if
                  (not src_used.(f).(i))
                  && (not dst_used.(f).(j))
                  && Simulator.remaining_at sim k i j > 0
                  && (core_left.(f) > 0
                     || not (Net.crosses_core net ~fabric:f ~src:i ~dst:j))
                  && not (Hashtbl.mem taken (k, i, j))
                then begin
                  let t =
                    { Simulator.src = i; dst = j; coflow = k; fabric = f }
                  in
                  claim t;
                  acc := t :: !acc
                end
              done
            done)
        priority)
    (Net.by_rate net);
  !acc

let shuffled st n =
  let a = Array.init n (fun k -> k) in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* Nets the sweep must handle: one switch, two fabrics at different rates,
   and oversubscribed cores whose budget binds. *)
let random_net st m =
  let rack_size = 1 + Random.State.int st m in
  let core_capacity = Random.State.int st (1 + (m / 4)) in
  match Random.State.int st 4 with
  | 0 -> Switchsim.Net.single ~ports:m
  | 1 -> Switchsim.Net.uniform ~ports:m ~rates:[ 2; 1 ]
  | 2 -> Switchsim.Net.two_tier ~ports:m ~rack_size ~core_capacity
  | _ ->
    Switchsim.Net.make ~ports:m
      [ Switchsim.Net.fabric 1;
        Switchsim.Net.fabric ~rack_size ~core_capacity 2;
      ]

(* Up to 70 ports, across the 62-bit word; staggered releases, some empty
   coflows, and a few slots already served so rows are partly drained. *)
let random_state seed =
  let st = Random.State.make [| seed |] in
  let m = 1 + Random.State.int st 70 and n = 1 + Random.State.int st 8 in
  let density = 0.02 +. Random.State.float st 0.3 in
  let demands =
    List.init n (fun _ ->
        let d =
          if Random.State.int st 8 = 0 then Matrix.Mat.make m
          else Matrix.Mat.random ~density ~max_entry:3 st m
        in
        (Random.State.int st 3, d))
  in
  let net = random_net st m in
  let sim = Switchsim.Simulator.create ~net ~ports:m demands in
  let priority = shuffled st n in
  for _ = 1 to Random.State.int st 4 do
    Switchsim.Simulator.step sim (naive_greedy sim ~priority)
  done;
  (st, sim, priority)

let prop_greedy_matching_is_naive_scan =
  QCheck.Test.make ~name:"Policy.greedy_matching equals the naive scan"
    ~count:300 QCheck.(int_range 0 1_000_000) (fun seed ->
      let st, sim, priority = random_state seed in
      let n = Array.length priority in
      (* a partial slot to extend: what the scan claims for a random
         sub-order *)
      let sub = Array.sub (shuffled st n) 0 (Random.State.int st (n + 1)) in
      let init = naive_greedy sim ~priority:sub in
      Policy.greedy_matching sim ~priority = naive_greedy sim ~priority
      && Policy.greedy_matching ~init sim ~priority
         = naive_greedy ~init sim ~priority)

(* The of_priority stepper decides over its live view; the full array must
   give the same transfers at every slot, while releases arrive on their
   own, [set_release] moves pending coflows to now or later, and
   [add_demand] grows coflows mid-run. *)
let prop_live_view_is_full_sweep =
  QCheck.Test.make ~name:"of_priority's live view decides as the full array"
    ~count:150 QCheck.(int_range 0 1_000_000) (fun seed ->
      let open Switchsim in
      let st = Random.State.make [| seed |] in
      let m = 2 + Random.State.int st 9 and n = 1 + Random.State.int st 12 in
      let demands =
        List.init n (fun _ ->
            let release =
              match Random.State.int st 4 with
              | 0 -> max_int (* pending until set_release *)
              | 1 -> 0
              | _ -> Random.State.int st 30
            in
            (release, Matrix.Mat.random ~density:0.3 ~max_entry:4 st m))
      in
      let sim =
        Simulator.create ~net:(random_net st m) ~ports:m demands
      in
      let priority = shuffled st n in
      let stepper =
        (Policy.of_priority ~describe:"live" priority).Policy.prepare sim
      in
      let pick pred =
        match List.filter pred (List.init n (fun k -> k)) with
        | [] -> None
        | ks -> Some (List.nth ks (Random.State.int st (List.length ks)))
      in
      let ok = ref true and budget = ref 300 in
      while !ok && !budget > 0 && not (Simulator.all_complete sim) do
        decr budget;
        (match Random.State.int st 6 with
        | 0 -> (
          match pick (fun k -> not (Simulator.released sim k)) with
          | Some k ->
            Simulator.set_release sim k
              (if Random.State.bool st then Simulator.now sim
               else Simulator.now sim + 1 + Random.State.int st 5)
          | None -> ())
        | 1 -> (
          match pick (fun k -> not (Simulator.is_complete sim k)) with
          | Some k ->
            Simulator.add_demand sim k ~src:(Random.State.int st m)
              ~dst:(Random.State.int st m)
              (1 + Random.State.int st 3)
          | None -> ())
        | _ -> ());
        let full = Policy.greedy_matching sim ~priority in
        let live, cap =
          match stepper.Policy.next_batch with
          | Some decide when Random.State.bool st ->
            decide sim ~max_n:(1 + Random.State.int st 4)
          | _ -> (stepper.Policy.next_slot sim, 1)
        in
        if live <> full then ok := false
        else ignore (Simulator.step_batch sim live ~cap)
      done;
      !ok)

(* One view asked for slices of two arrays at random starts, while
   releases arrive and coflows finish, always answers the live entries of
   the slice asked for: a memo hit only when the same slice comes back
   with the same released and unfinished counts. *)
let prop_live_slice_is_filtered_slice =
  QCheck.Test.make ~name:"live_slice answers the live part of its slice"
    ~count:150 QCheck.(int_range 0 1_000_000) (fun seed ->
      let open Switchsim in
      let st, sim, priority = random_state seed in
      let n = Array.length priority in
      let other = shuffled st n in
      let v = Policy.live_view () in
      let ok = ref true and budget = ref 60 in
      while !ok && !budget > 0 && not (Simulator.all_complete sim) do
        decr budget;
        for _ = 1 to 3 do
          let src = if Random.State.bool st then priority else other in
          let pos = Random.State.int st (n + 1) in
          let want =
            List.filter
              (fun k ->
                Simulator.released sim k && not (Simulator.is_complete sim k))
              (Array.to_list (Array.sub src pos (n - pos)))
          in
          if Array.to_list (Policy.live_slice v sim src ~pos) <> want then
            ok := false
        done;
        Simulator.step sim (naive_greedy sim ~priority)
      done;
      !ok)

(* One decision on a 64-port, 600-coflow state allocates its transfers
   (a 3-word cons and a 5-word record each) and a constant: nothing per
   coflow visited or per candidate source probed. *)
let test_greedy_allocation () =
  let inst =
    Fb_like.generate ~ports:64 ~coflows:600 (Random.State.make [| 7 |])
  in
  let sim = Switchsim.Simulator.create ~ports:64 (Instance.demands inst) in
  let priority = Ordering.by_load_over_weight inst in
  for _ = 1 to 5 do
    Switchsim.Simulator.step sim (Policy.greedy_matching sim ~priority)
  done;
  let before = Gc.minor_words () in
  let ts = Policy.greedy_matching sim ~priority in
  let words = int_of_float (Gc.minor_words () -. before) in
  let bound = (8 * List.length ts) + 64 in
  if List.length ts < 32 then
    Alcotest.failf "only %d transfers" (List.length ts);
  if words > bound then
    Alcotest.failf "%d transfers allocated %d words, over %d" (List.length ts)
      words bound

(* 999 of 1,000 coflows are released at 10^6: each decision of the
   of_priority stepper examines the one live entry and nothing else. *)
let test_coflows_visited_live () =
  let n = 1000 and live = 500 in
  let d = Matrix.Mat.of_arrays [| [| 4; 0 |]; [| 0; 4 |] |] in
  let sim =
    Switchsim.Simulator.create ~ports:2
      (List.init n (fun k -> ((if k = live then 0 else 1_000_000), d)))
  in
  let stepper =
    (Policy.of_priority ~describe:"one live" (Array.init n (fun k -> k)))
      .Policy.prepare sim
  in
  let visited = Obs.Counter.make "policy.coflows_visited" in
  for slot = 1 to 4 do
    let before = Obs.Counter.value visited in
    let ts = stepper.Policy.next_slot sim in
    check_int
      (Printf.sprintf "entries examined in slot %d" slot)
      1
      (Obs.Counter.value visited - before);
    Switchsim.Simulator.step sim ts
  done;
  Alcotest.(check bool) "live coflow done" true
    (Switchsim.Simulator.is_complete sim live)

(* ---------- k=1 / rate=1 Net equivalence ---------- *)

(* The multi-fabric refactor claims [Net.single] recovers the paper's
   model bit for bit.  Prove it two ways: the pre-refactor goldens above
   re-run through an explicit single-fabric net, and a property over the
   same generator comparing the default path (which is itself Net.single
   under the hood — no legacy path survives) against explicit nets. *)

let run_on ?net inst policy =
  let ports = Instance.ports inst in
  let sim = Switchsim.Simulator.create ?net ~ports (Instance.demands inst) in
  Engine.run ~sim inst policy

(* The grouped replay on nets with two fabrics at different rates and
   oversubscribed cores whose budget binds: every case (and the aggressive
   top-up) completes, and the batched loop decides exactly what the
   slot-by-slot loop decides, core-budget drops included. *)
let prop_grouped_on_nets =
  QCheck.Test.make
    ~name:"grouped cases on any net complete, batched = slot loop" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let open Switchsim in
      let st = Random.State.make [| seed |] in
      let m = 2 + Random.State.int st 7 and n = 1 + Random.State.int st 6 in
      let inst =
        Instance.make ~ports:m
          (List.init n (fun id ->
               { Instance.id;
                 release = Random.State.int st 6;
                 weight = float_of_int (1 + Random.State.int st 4);
                 demand = Matrix.Mat.random ~density:0.4 ~max_entry:4 st m;
               }))
      in
      let rack_size = 1 + Random.State.int st m in
      let core_capacity = 1 + Random.State.int st (1 + (m / 4)) in
      let net =
        match Random.State.int st 3 with
        | 0 -> Net.uniform ~ports:m ~rates:[ 2; 1 ]
        | 1 -> Net.two_tier ~ports:m ~rack_size ~core_capacity
        | _ ->
          Net.make ~ports:m
            [ Net.fabric 1; Net.fabric ~rack_size ~core_capacity 2 ]
      in
      let order = Ordering.by_load_over_weight inst in
      let policies =
        Scheduler.as_policy ~backfill:true ~aggressive:true
          ~describe:"aggressive"
          (Grouping.deterministic inst order)
        :: List.map
             (fun case -> Scheduler.case_policy ~case inst order)
             Scheduler.all_cases
      in
      List.for_all
        (fun policy ->
          let run p =
            let sim = Simulator.create ~net ~ports:m (Instance.demands inst) in
            Engine.run ~sim inst p
          in
          let a = run policy and b = run (Policy.unbatched policy) in
          a.Engine.completion = b.Engine.completion
          && a.Engine.twct = b.Engine.twct
          && a.Engine.slots = b.Engine.slots
          && a.Engine.matchings = b.Engine.matchings)
        policies)

let test_golden_through_explicit_net () =
  let inst = Lazy.force golden_instance in
  let net = Switchsim.Net.single ~ports:(Instance.ports inst) in
  let r =
    run_on ~net inst
      (Policy.of_priority ~describe:"greedy hrho"
         (Ordering.by_load_over_weight inst))
  in
  (* the same numbers the pre-refactor golden asserts above pin down *)
  Alcotest.(check (float 0.0)) "twct via Net.single" 150715.0 r.Engine.twct;
  check_int "slots via Net.single" 1395 r.Engine.slots

let prop_single_net_equivalence =
  QCheck.Test.make
    ~name:"k=1/rate=1 nets are decision-identical to the default path"
    ~count:40
    QCheck.(triple (int_range 2 6) (int_range 1 6) (int_range 0 100_000))
    (fun (ports, coflows, seed) ->
      let inst = random_instance ~ports ~coflows seed in
      let policy =
        Policy.of_priority ~describe:"greedy"
          (Ordering.by_load_over_weight inst)
      in
      let base = run_on inst policy in
      List.for_all
        (fun net ->
          let r = run_on ~net inst policy in
          r.Engine.twct = base.Engine.twct
          && r.Engine.slots = base.Engine.slots
          && r.Engine.completion = base.Engine.completion)
        [ Switchsim.Net.single ~ports;
          Switchsim.Net.uniform ~ports ~rates:[ 1 ];
          (* a non-blocking core budget is vacuous: still the same model *)
          Switchsim.Net.two_tier ~ports ~rack_size:ports ~core_capacity:ports;
        ])

(* SEBF+MADD's credit matching spends fabric 0's core budget: on an
   oversubscribed net it used to claim every credited inter-rack pair,
   and the simulator rejected its first over-budget slot. *)
let test_sebf_madd_core_budget () =
  let inst = Fb_like.generate ~ports:16 ~coflows:12 (Random.State.make [| 7 |]) in
  let net = Switchsim.Net.two_tier ~ports:16 ~rack_size:4 ~core_capacity:2 in
  let r =
    run_on ~net inst
      (Baselines.sebf_madd_policy ~coflows:(Instance.num_coflows inst))
  in
  Alcotest.(check bool) "every coflow completes" true
    (Array.for_all (fun c -> c > 0) r.Engine.completion)

let () =
  Alcotest.run "engine"
    [ ( "golden",
        [ Alcotest.test_case "H_LP case (d)" `Slow test_golden_hlp_case_d;
          Alcotest.test_case "baselines" `Quick test_golden_baselines;
          Alcotest.test_case "online" `Quick test_golden_online;
          Alcotest.test_case "decentralized" `Quick test_golden_decentralized;
          Alcotest.test_case "resilient" `Quick test_golden_resilient;
          Alcotest.test_case "schedule digest" `Quick test_schedule_digest;
          Alcotest.test_case "decisions counted" `Quick test_decisions_counted;
          Alcotest.test_case "recorded transcripts" `Quick test_recorded;
        ] );
      ( "run_many",
        [ Alcotest.test_case "jobs=1 equals jobs=4" `Quick
            test_run_many_jobs_invariant;
          Alcotest.test_case "rejects jobs=0" `Quick
            test_run_many_rejects_bad_jobs;
          Alcotest.test_case "re-raises job failure" `Quick
            test_run_many_reraises;
        ] );
      ( "policy",
        [ QCheck_alcotest.to_alcotest prop_greedy_matching_valid_and_maximal;
          QCheck_alcotest.to_alcotest prop_greedy_matching_is_naive_scan;
          QCheck_alcotest.to_alcotest prop_live_view_is_full_sweep;
          Alcotest.test_case "greedy_matching allocates per transfer" `Quick
            test_greedy_allocation;
          Alcotest.test_case "coflows_visited counts live entries" `Quick
            test_coflows_visited_live;
          QCheck_alcotest.to_alcotest prop_live_slice_is_filtered_slice;
        ] );
      ( "net-equivalence",
        [ Alcotest.test_case "goldens through Net.single" `Quick
            test_golden_through_explicit_net;
          QCheck_alcotest.to_alcotest prop_single_net_equivalence;
          QCheck_alcotest.to_alcotest prop_grouped_on_nets;
          Alcotest.test_case "sebf+madd under a core budget" `Quick
            test_sebf_madd_core_budget;
        ] );
    ]

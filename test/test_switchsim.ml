(* Tests for the non-blocking switch simulator. *)

open Matrix
open Switchsim

let fig1 () = Mat.of_arrays [| [| 1; 2 |]; [| 2; 1 |] |]

let check_int = Alcotest.(check int)

let t i j k = { Simulator.src = i; dst = j; coflow = k; fabric = 0 }

let test_create () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  check_int "ports" 2 (Simulator.ports sim);
  check_int "coflows" 1 (Simulator.num_coflows sim);
  check_int "clock" 0 (Simulator.now sim);
  check_int "remaining" 6 (Simulator.remaining_total sim 0);
  Alcotest.(check bool) "released at 0" true (Simulator.released sim 0)

let test_create_mismatch () =
  (try
     ignore (Simulator.create ~ports:3 [ (0, fig1 ()) ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_empty_coflow_complete_immediately () =
  let sim = Simulator.create ~ports:2 [ (0, Mat.make 2) ] in
  Alcotest.(check bool) "complete" true (Simulator.is_complete sim 0);
  Alcotest.(check (option int)) "time 0" (Some 0)
    (Simulator.completion_time sim 0);
  Alcotest.(check bool) "all complete" true (Simulator.all_complete sim)

(* Only an unrestricted greedy sweep writes the claims buffer, so a
   simulator allocates it on its first [claim_rows], not in [create]. *)
let test_claims_on_demand () =
  let d = Mat.make 5 in
  Mat.set d 1 3 2;
  let sim = Simulator.create ~ports:5 [ (0, d) ] in
  check_int "no buffer after create" 0 (Array.length (Simulator.claims sim));
  let free () = [| Bits.low_mask 5 |] in
  let n =
    Simulator.claim_rows sim 0 ~free_src:(free ()) ~free_dst:(free ()) ~off:0
  in
  check_int "one claim" 1 n;
  check_int "2 * ports ints after claim_rows" 10
    (Array.length (Simulator.claims sim));
  Alcotest.(check (pair int int)) "the claimed pair" (1, 3)
    ((Simulator.claims sim).(0), (Simulator.claims sim).(1))

let test_step_moves_data () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  Simulator.step sim [ t 0 0 0; t 1 1 0 ];
  check_int "clock" 1 (Simulator.now sim);
  check_int "left" 4 (Simulator.remaining_total sim 0);
  check_int "entry drained" 0 (Simulator.remaining_at sim 0 0 0)

let test_fig1_completes_in_3 () =
  (* The paper's slot-by-slot schedule for Figure 1. *)
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  Simulator.step sim [ t 0 0 0; t 1 1 0 ];
  Simulator.step sim [ t 0 1 0; t 1 0 0 ];
  Simulator.step sim [ t 0 1 0; t 1 0 0 ];
  Alcotest.(check bool) "complete" true (Simulator.all_complete sim);
  check_int "C = 3" 3 (Simulator.completion_time_exn sim 0)

let test_port_conflict_src () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  (try
     Simulator.step sim [ t 0 0 0; t 0 1 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ());
  (* state unchanged on failure *)
  check_int "clock" 0 (Simulator.now sim);
  check_int "nothing moved" 6 (Simulator.remaining_total sim 0)

let test_port_conflict_dst () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  (try
     Simulator.step sim [ t 0 0 0; t 1 0 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ())

let test_no_demand_rejected () =
  let sim = Simulator.create ~ports:2 [ (0, Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |]) ] in
  (try
     Simulator.step sim [ t 0 1 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ())

let test_release_gating () =
  let sim = Simulator.create ~ports:2 [ (2, fig1 ()) ] in
  Alcotest.(check bool) "not yet released" false (Simulator.released sim 0);
  (try
     Simulator.step sim [ t 0 0 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ());
  Simulator.step sim [];
  Simulator.step sim [];
  Alcotest.(check bool) "released at t=2" true (Simulator.released sim 0);
  Simulator.step sim [ t 0 0 0 ];
  check_int "moved after release" 5 (Simulator.remaining_total sim 0)

let test_idle_slots_count () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  Simulator.step sim [];
  Simulator.step sim [ t 0 0 0 ];
  check_int "units moved" 1 (Simulator.units_moved sim)

let test_multi_coflow_slot () =
  let d0 = Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |] in
  let d1 = Mat.of_arrays [| [| 0; 0 |]; [| 0; 1 |] |] in
  let sim = Simulator.create ~ports:2 [ (0, d0); (0, d1) ] in
  Simulator.step sim [ t 0 0 0; t 1 1 1 ];
  Alcotest.(check bool) "both done" true (Simulator.all_complete sim);
  check_int "C0" 1 (Simulator.completion_time_exn sim 0);
  check_int "C1" 1 (Simulator.completion_time_exn sim 1)

(* a per-slot policy as a decision of the loop: a batch of one *)
let one_slot policy sim ~max_n:_ = (policy sim, 1)

let test_run_policy () =
  (* trivial policy: greedy first-fit on coflow 0's remaining demand *)
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  let policy s =
    let used_src = Array.make 2 false and used_dst = Array.make 2 false in
    let out = ref [] in
    Mat.iter_nonzero
      (fun i j _ ->
        if not (used_src.(i) || used_dst.(j)) then begin
          used_src.(i) <- true;
          used_dst.(j) <- true;
          out := t i j 0 :: !out
        end)
      (Simulator.remaining s 0);
    !out
  in
  let decisions = Simulator.run sim ~policy:(one_slot policy) in
  Alcotest.(check bool) "complete" true (Simulator.all_complete sim);
  Alcotest.(check bool) "no slower than total units" true
    (Simulator.now sim <= 6);
  check_int "one decision per slot" (Simulator.now sim) decisions

let test_run_budget () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  (try
     ignore (Simulator.run ~max_slots:3 sim ~policy:(one_slot (fun _ -> [])));
     Alcotest.fail "expected Failure"
   with Failure _ -> ())

let test_twct () =
  let d0 = Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |] in
  let d1 = Mat.of_arrays [| [| 2; 0 |]; [| 0; 0 |] |] in
  let sim = Simulator.create ~ports:2 [ (0, d0); (0, d1) ] in
  Simulator.step sim [ t 0 0 0 ];
  Simulator.step sim [ t 0 0 1 ];
  Simulator.step sim [ t 0 0 1 ];
  Alcotest.(check (float 1e-9)) "weighted" (1.0 +. (2.0 *. 3.0))
    (Simulator.total_weighted_completion sim [| 1.0; 2.0 |])

let test_twct_unfinished () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  (try
     ignore (Simulator.total_weighted_completion sim [| 1.0 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_utilization () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  Simulator.step sim [ t 0 0 0; t 1 1 0 ];
  Alcotest.(check (float 1e-9)) "full slot" 1.0 (Simulator.utilization sim)

let test_step_port_out_of_range () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  List.iter
    (fun tr ->
      try
        Simulator.step sim [ tr ];
        Alcotest.fail "expected Invalid_slot"
      with Simulator.Invalid_slot _ ->
        check_int "state unchanged" 0 (Simulator.now sim))
    [ t 2 0 0; t (-1) 0 0; t 0 2 0; t 0 (-1) 0 ]

let test_step_unknown_coflow () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  (try
     Simulator.step sim [ t 0 0 1 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ());
  (try
     Simulator.step sim [ t 0 0 (-1) ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ())

let test_step_completed_coflow_rejected () =
  let d = Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |] in
  let sim = Simulator.create ~ports:2 [ (0, d) ] in
  Simulator.step sim [ t 0 0 0 ];
  Alcotest.(check bool) "done" true (Simulator.is_complete sim 0);
  (try
     Simulator.step sim [ t 0 0 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ())

(* ---------- add_demand (straggler support) ---------- *)

let test_add_demand () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()) ] in
  Simulator.add_demand sim 0 ~src:0 ~dst:1 3;
  check_int "total grew" 9 (Simulator.remaining_total sim 0);
  check_int "entry grew" 5 (Simulator.remaining_at sim 0 0 1);
  Simulator.add_demand sim 0 ~src:1 ~dst:0 1;
  check_int "existing entry" 3 (Simulator.remaining_at sim 0 1 0);
  check_int "positive entries grew, none created" 0
    (Simulator.grown_entries sim);
  (* drain (0, 0), then revive it *)
  Simulator.step sim [ { Simulator.src = 0; dst = 0; coflow = 0; fabric = 0 } ];
  Simulator.add_demand sim 0 ~src:0 ~dst:0 2;
  check_int "a revived entry counts" 1 (Simulator.grown_entries sim)

let test_add_demand_validation () =
  let d = Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |] in
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()); (0, d) ] in
  let bad f =
    try
      f ();
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  bad (fun () -> Simulator.add_demand sim 5 ~src:0 ~dst:0 1);
  bad (fun () -> Simulator.add_demand sim 0 ~src:2 ~dst:0 1);
  bad (fun () -> Simulator.add_demand sim 0 ~src:0 ~dst:(-1) 1);
  bad (fun () -> Simulator.add_demand sim 0 ~src:0 ~dst:0 0);
  bad (fun () -> Simulator.add_demand sim 0 ~src:0 ~dst:0 (-2));
  (* completed coflows stay completed *)
  Simulator.step sim [ t 0 0 1 ];
  bad (fun () -> Simulator.add_demand sim 1 ~src:0 ~dst:0 1);
  check_int "untouched" 0 (Simulator.remaining_total sim 1)

(* ---------- dynamic releases ---------- *)

let test_set_release () =
  let sim = Simulator.create ~ports:2 [ (max_int, fig1 ()) ] in
  Alcotest.(check bool) "pending" false (Simulator.released sim 0);
  Simulator.step sim [];
  Simulator.set_release sim 0 (Simulator.now sim);
  Alcotest.(check bool) "released now" true (Simulator.released sim 0);
  Simulator.step sim [ t 0 0 0 ];
  check_int "served" 5 (Simulator.remaining_total sim 0)

let test_set_release_validation () =
  let sim = Simulator.create ~ports:2 [ (0, fig1 ()); (10, fig1 ()) ] in
  (try
     Simulator.set_release sim 0 5;
     Alcotest.fail "already released"
   with Invalid_argument _ -> ());
  Simulator.step sim [];
  (try
     Simulator.set_release sim 1 0;
     Alcotest.fail "cannot release in the past"
   with Invalid_argument _ -> ());
  Simulator.set_release sim 1 1 (* = now; fine *)

let test_validate_hook () =
  let validate ~slots transfers =
    if List.length transfers > 1 then Error "one at a time"
    else if slots > 2 then Error "batches of at most 2"
    else Ok ()
  in
  let d = Mat.of_arrays [| [| 5; 2 |]; [| 2; 1 |] |] in
  let sim = Simulator.create ~validate ~ports:2 [ (0, d) ] in
  (try
     Simulator.step sim [ t 0 0 0; t 1 1 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot m ->
     Alcotest.(check string) "hook message" "one at a time" m);
  check_int "state unchanged" 0 (Simulator.now sim);
  Simulator.step sim [ t 0 0 0 ];
  check_int "single ok" 1 (Simulator.now sim);
  (* the hook sees the batch length: [step] passes 1, [step_batch] its
     [slots] *)
  (try
     Simulator.step_batch sim [ t 0 0 0 ] ~slots:3;
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot m ->
     Alcotest.(check string) "batch length reached the hook"
       "batches of at most 2" m);
  check_int "rejected batch left the clock" 1 (Simulator.now sim);
  Simulator.step_batch sim [ t 0 0 0 ] ~slots:2;
  check_int "batch of 2 ok" 3 (Simulator.now sim)

(* ---------- fabric: the two-tier oversubscribed Net ---------- *)

let greedy priority sim = Core.Policy.greedy_matching sim ~priority

let test_fabric_topology () =
  let net = Net.two_tier ~ports:6 ~rack_size:2 ~core_capacity:2 in
  check_int "rack of 0" 0 (Net.rack_of net ~fabric:0 0);
  check_int "rack of 3" 1 (Net.rack_of net ~fabric:0 3);
  let crosses { Simulator.src; dst; fabric; _ } =
    Net.crosses_core net ~fabric ~src ~dst
  in
  Alcotest.(check bool) "intra" false (crosses (t 0 1 0));
  Alcotest.(check bool) "inter" true (crosses (t 0 2 0));
  check_int "usage" 1 (List.length (List.filter crosses [ t 0 1 0; t 1 2 0 ]))

let test_fabric_topology_validation () =
  (try
     ignore (Net.two_tier ~ports:4 ~rack_size:0 ~core_capacity:1);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (try
     ignore (Net.two_tier ~ports:4 ~rack_size:2 ~core_capacity:(-1));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let two_tier_sim ~core_capacity d =
  let net = Net.two_tier ~ports:4 ~rack_size:2 ~core_capacity in
  Simulator.create ~net ~ports:4 [ (0, d) ]

let test_fabric_enforces_core () =
  (* 4 ports, racks of 2, core capacity 1: two simultaneous inter-rack
     transfers must be rejected *)
  let d = Mat.make 4 in
  Mat.set d 0 2 1;
  Mat.set d 1 3 1;
  let sim = two_tier_sim ~core_capacity:1 d in
  (try
     Simulator.step sim [ t 0 2 0; t 1 3 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ());
  Simulator.step sim [ t 0 2 0 ];
  check_int "one unit moved" 1 (Simulator.units_moved sim)

let test_fabric_greedy_respects_core () =
  let st = Random.State.make [| 5 |] in
  let d = Mat.random ~density:0.8 ~max_entry:3 st 4 in
  let sim = two_tier_sim ~core_capacity:1 d in
  ignore (Simulator.run sim ~policy:(one_slot (greedy [| 0 |])));
  Alcotest.(check bool) "completes" true (Simulator.all_complete sim)

let test_fabric_nonblocking_equals_plain_greedy () =
  (* with core capacity = ports the fabric constraint is vacuous *)
  let st = Random.State.make [| 6 |] in
  let d = Mat.random ~density:0.6 ~max_entry:3 st 4 in
  let sim = two_tier_sim ~core_capacity:4 d in
  ignore (Simulator.run sim ~policy:(one_slot (greedy [| 0 |])));
  (* a single coflow under greedy completes in at most total units slots
     and at least rho slots *)
  let c = Simulator.completion_time_exn sim 0 in
  Alcotest.(check bool) "bounded" true (c >= Mat.load d && c <= Mat.total d)

(* ---------- Net: multi-fabric topology ---------- *)

let tf i j k f = { Simulator.src = i; dst = j; coflow = k; fabric = f }

let test_net_accessors () =
  let n = Net.uniform ~ports:6 ~rates:[ 2; 5; 1; 5 ] in
  check_int "ports" 6 (Net.ports n);
  check_int "k" 4 (Net.k n);
  check_int "rate 1" 5 (Net.rate n 1);
  check_int "total rate" 13 (Net.total_rate n);
  (* fastest first, rate ties broken by ascending index *)
  Alcotest.(check (array int)) "by_rate" [| 1; 3; 0; 2 |] (Net.by_rate n)

let test_net_two_tier () =
  let n = Net.two_tier ~ports:6 ~rack_size:2 ~core_capacity:1 in
  check_int "rack of 3" 1 (Net.rack_of n ~fabric:0 3);
  Alcotest.(check bool) "local" false
    (Net.crosses_core n ~fabric:0 ~src:0 ~dst:1);
  Alcotest.(check bool) "inter" true
    (Net.crosses_core n ~fabric:0 ~src:0 ~dst:2);
  Alcotest.(check (option int)) "budget" (Some 1) (Net.core_capacity n 0);
  Alcotest.(check (option int)) "non-blocking budget" None
    (Net.core_capacity (Net.single ~ports:6) 0)

let test_net_validation () =
  let invalid f =
    try
      ignore (f ());
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  invalid (fun () -> Net.make ~ports:0 [ Net.fabric 1 ]);
  invalid (fun () -> Net.make ~ports:4 []);
  invalid (fun () -> Net.fabric 0);
  invalid (fun () -> Net.fabric ~core_capacity:2 1);
  invalid (fun () -> Net.make ~ports:4 [ Net.fabric ~rack_size:8 ~core_capacity:1 1 ]);
  invalid (fun () -> Net.fabric_of (Net.single ~ports:4) 1)

let test_multi_fabric_rate_decrement () =
  (* a rate-4 fabric moves min(4, remaining) per served slot *)
  let d = Mat.make 2 in
  Mat.set d 0 1 6;
  let net = Net.uniform ~ports:2 ~rates:[ 4 ] in
  let sim = Simulator.create ~net ~ports:2 [ (0, d) ] in
  Simulator.step sim [ tf 0 1 0 0 ];
  check_int "first slot moves 4" 4 (Simulator.units_moved sim);
  check_int "remaining 2" 2 (Simulator.remaining_at sim 0 0 1);
  Simulator.step sim [ tf 0 1 0 0 ];
  check_int "second slot moves the tail" 6 (Simulator.units_moved sim);
  Alcotest.(check bool) "complete" true (Simulator.all_complete sim)

let test_multi_fabric_port_exclusivity () =
  (* within one fabric a port carries one transfer; the same port is free
     on the other fabric in the same slot *)
  let d = Mat.make 2 in
  Mat.set d 0 0 1;
  Mat.set d 0 1 1;
  let net = Net.uniform ~ports:2 ~rates:[ 1; 1 ] in
  let sim = Simulator.create ~net ~ports:2 [ (0, d) ] in
  (try
     Simulator.step sim [ tf 0 0 0 0; tf 0 1 0 0 ];
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ());
  Simulator.step sim [ tf 0 0 0 0; tf 0 1 0 1 ];
  check_int "both fabrics served src 0" 2 (Simulator.units_moved sim)

let test_multi_fabric_out_of_range () =
  let d = Mat.make 2 in
  Mat.set d 0 1 1;
  let net = Net.uniform ~ports:2 ~rates:[ 1; 1 ] in
  let sim = Simulator.create ~net ~ports:2 [ (0, d) ] in
  try
    Simulator.step sim [ tf 0 1 0 2 ];
    Alcotest.fail "expected Invalid_slot"
  with Simulator.Invalid_slot _ -> ()

let test_multi_fabric_batch_rate_aware () =
  (* 9 units on a rate-4 fabric: the pair survives 3 slots (the third
     zeroes it exactly at the batch boundary) *)
  let d = Mat.make 2 in
  Mat.set d 0 1 9;
  let net = Net.uniform ~ports:2 ~rates:[ 4 ] in
  let sim = Simulator.create ~net ~ports:2 [ (0, d) ] in
  Simulator.step_batch sim [ tf 0 1 0 0 ] ~slots:3;
  check_int "all 9 units moved" 9 (Simulator.units_moved sim);
  Alcotest.(check bool) "complete" true (Simulator.all_complete sim);
  check_int "three slots" 3 (Simulator.now sim)

(* One (coflow, src, dst) entry drained by two fabrics in one slot would
   race its demand decrement: the step refuses it by name and moves
   nothing. *)
let test_multi_fabric_pair_twice () =
  let d = Mat.make 2 in
  Mat.set d 0 1 5;
  let net = Net.uniform ~ports:2 ~rates:[ 1; 1 ] in
  let sim = Simulator.create ~net ~ports:2 [ (0, d) ] in
  Alcotest.check_raises "same pair on fabrics 0 and 1"
    (Simulator.Invalid_slot
       "coflow 0 pair (0, 1) served on two fabrics in one slot") (fun () ->
      Simulator.step sim [ tf 0 1 0 0; tf 0 1 0 1 ]);
  check_int "nothing moved" 0 (Simulator.units_moved sim);
  check_int "clock still" 0 (Simulator.now sim)

(* The rule is per entry: one ingress may serve the same pair for two
   coflows, or two pairs of one coflow, on the two fabrics. *)
let test_multi_fabric_distinct_pairs () =
  let a = Mat.of_arrays [| [| 0; 4 |]; [| 4; 0 |] |]
  and b = Mat.of_arrays [| [| 0; 4 |]; [| 0; 0 |] |] in
  let net = Net.uniform ~ports:2 ~rates:[ 1; 1 ] in
  let sim = Simulator.create ~net ~ports:2 [ (0, a); (0, b) ] in
  Simulator.step sim [ tf 0 1 0 0; tf 0 1 1 1; tf 1 0 0 1 ];
  check_int "three units" 3 (Simulator.units_moved sim);
  check_int "coflow 0's pair (0, 1)" 3 (Simulator.remaining_at sim 0 0 1);
  check_int "coflow 1's pair (0, 1)" 3 (Simulator.remaining_at sim 1 0 1)

(* Minor words one step of a 16-port identity slot allocates, over 100
   steps: the cross-fabric check must cost no more than a few words per
   transfer over the single switch's. *)
let step_words net =
  let m = 16 in
  let d = Mat.diagonal (Array.make m 1_000_000) in
  let sim = Simulator.create ~net ~ports:m [ (0, d) ] in
  let k = Net.k net in
  let ts = List.init m (fun i -> tf i i 0 (i mod k)) in
  Simulator.step sim ts;
  let before = Gc.minor_words () in
  for _ = 1 to 100 do
    Simulator.step sim ts
  done;
  (Gc.minor_words () -. before) /. 100.

let test_multi_fabric_step_allocation () =
  let single = step_words (Net.single ~ports:16)
  and two = step_words (Net.uniform ~ports:16 ~rates:[ 2; 1 ]) in
  if two > single +. (5. *. 16.) then
    Alcotest.failf "16 transfers on two fabrics: %.1f words a step, against \
                    %.1f on one" two single

(* Regression (suspected ordering hole, now pinned): the fault-aware
   greedy sweep's core budget must not starve a rack-local pair that the
   scan reaches after rejecting a core-crossing pair — the budget only
   gates inter-rack claims, never the scan itself. *)
let test_fabric_greedy_no_rack_local_starvation () =
  let d = Mat.make 4 in
  Mat.set d 0 2 1;
  (* inter-rack: claims the whole core budget *)
  Mat.set d 1 3 1;
  (* inter-rack: must be rejected, ports 1 and 3 stay free *)
  Mat.set d 2 3 1;
  (* rack-local, scanned after the rejection: must still be served *)
  let net = Net.two_tier ~ports:4 ~rack_size:2 ~core_capacity:1 in
  let inj =
    Faults.Injector.create ~net ~plan:Faults.Fault_plan.empty ~ports:4
      [ (0, d) ]
  in
  let sim = Faults.Injector.sim inj in
  let ts =
    Core.Policy.greedy_matching ~faults:(Faults.Injector.faults inj) sim
      ~priority:[| 0 |]
  in
  Alcotest.(check bool) "rack-local pair served" true
    (List.exists
       (fun { Simulator.src; dst; _ } -> src = 2 && dst = 3)
       ts);
  Alcotest.(check bool) "core pair served" true
    (List.exists
       (fun { Simulator.src; dst; _ } -> src = 0 && dst = 2)
       ts);
  check_int "exactly the two admissible pairs" 2 (List.length ts);
  (* and the same slot is feasible for the simulator's own validation *)
  Simulator.step sim ts;
  check_int "both units moved" 2 (Simulator.units_moved sim)

(* the bitset sweep must agree: Policy.greedy_matching on the equivalent
   two-tier net admits the same rack-local pair *)
let test_policy_matching_no_rack_local_starvation () =
  let d = Mat.make 4 in
  Mat.set d 0 2 1;
  Mat.set d 1 3 1;
  Mat.set d 2 3 1;
  let net = Net.two_tier ~ports:4 ~rack_size:2 ~core_capacity:1 in
  let sim = Simulator.create ~net ~ports:4 [ (0, d) ] in
  let ts = Core.Policy.greedy_matching sim ~priority:[| 0 |] in
  Alcotest.(check bool) "rack-local pair served" true
    (List.exists
       (fun { Simulator.src; dst; _ } -> src = 2 && dst = 3)
       ts);
  check_int "two pairs" 2 (List.length ts);
  Simulator.step sim ts

(* ---------- recorder ---------- *)

let greedy_single_policy s =
  let used_src = Array.make (Simulator.ports s) false in
  let used_dst = Array.make (Simulator.ports s) false in
  let out = ref [] in
  for k = 0 to Simulator.num_coflows s - 1 do
    if Simulator.released s k && not (Simulator.is_complete s k) then
      Mat.iter_nonzero
        (fun i j _ ->
          if not (used_src.(i) || used_dst.(j)) then begin
            used_src.(i) <- true;
            used_dst.(j) <- true;
            out := t i j k :: !out
          end)
        (Simulator.remaining s k)
  done;
  !out

(* run [greedy_single_policy] to completion, one slot per decision, and
   keep its transcript *)
let record sim =
  let log = Recorder.log ~ports:(Simulator.ports sim) in
  let (_ : int) =
    Simulator.run sim ~policy:(fun s ~max_n:_ ->
        let transfers = greedy_single_policy s in
        Recorder.add log transfers ~slots:1;
        (transfers, 1))
  in
  Recorder.contents log

let test_record_and_replay () =
  let demands = [ (0, fig1 ()); (2, fig1 ()) ] in
  let sim = Simulator.create ~ports:2 demands in
  let recording = record sim in
  let sim' = Recorder.replay recording demands in
  Alcotest.(check bool) "replay completes" true (Simulator.all_complete sim');
  check_int "same completion 0"
    (Simulator.completion_time_exn sim 0)
    (Simulator.completion_time_exn sim' 0);
  check_int "same completion 1"
    (Simulator.completion_time_exn sim 1)
    (Simulator.completion_time_exn sim' 1)

let test_recorder_csv_roundtrip () =
  let demands = [ (0, fig1 ()) ] in
  let sim = Simulator.create ~ports:2 demands in
  let recording = record sim in
  let recording' = Recorder.of_csv (Recorder.to_csv recording) in
  let sim' = Recorder.replay recording' demands in
  check_int "same makespan" (Simulator.now sim) (Simulator.now sim')

let test_recorder_csv_gaps_roundtrip () =
  (* a release at slot 3 forces idle slots 1..3, which the CSV shows only
     as a gap in the slot column — the geometry comment has to carry the
     slot count for the round-trip to reproduce them *)
  let demands = [ (3, fig1 ()) ] in
  let sim = Simulator.create ~ports:2 demands in
  let recording = record sim in
  Alcotest.(check bool) "recording has idle slots" true
    (Array.exists (fun l -> l = []) recording.Recorder.slots);
  let csv = Recorder.to_csv recording in
  Alcotest.(check string) "geometry comment"
    (Printf.sprintf "# ports=%d slots=%d" recording.Recorder.ports
       (Array.length recording.Recorder.slots))
    (List.hd (String.split_on_char '\n' csv));
  let recording' = Recorder.of_csv csv in
  check_int "ports preserved" recording.Recorder.ports
    recording'.Recorder.ports;
  check_int "slot count preserved (idle tail included)"
    (Array.length recording.Recorder.slots)
    (Array.length recording'.Recorder.slots);
  Array.iteri
    (fun i l ->
      Alcotest.(check bool)
        (Printf.sprintf "slot %d identical" i)
        true
        (List.sort compare l = List.sort compare recording'.Recorder.slots.(i)))
    recording.Recorder.slots;
  (* replay after the round-trip is deterministic: same completions *)
  let sim_a = Recorder.replay recording demands in
  let sim_b = Recorder.replay recording' demands in
  check_int "same completion"
    (Simulator.completion_time_exn sim_a 0)
    (Simulator.completion_time_exn sim_b 0);
  check_int "same makespan" (Simulator.now sim_a) (Simulator.now sim_b);
  (* a re-encode carries the same rows (within-slot order is free) *)
  let rows text = List.sort compare (String.split_on_char '\n' text) in
  Alcotest.(check (list string)) "re-encode keeps the rows" (rows csv)
    (rows (Recorder.to_csv recording'))

let test_recorder_detects_tampering () =
  let demands = [ (0, fig1 ()) ] in
  let sim = Simulator.create ~ports:2 demands in
  let recording = record sim in
  let csv = Recorder.to_csv recording in
  (* claim two transfers from the same ingress in slot 1 *)
  let tampered = csv ^ "1,0,1,0\n" in
  let recording' = Recorder.of_csv tampered in
  (try
     ignore (Recorder.replay recording' demands);
     Alcotest.fail "expected Invalid_slot"
   with Simulator.Invalid_slot _ -> ())

let test_recorder_bad_csv () =
  List.iter
    (fun text ->
      try
        ignore (Recorder.of_csv text);
        Alcotest.fail "expected Failure"
      with Failure _ -> ())
    [ "";
      "nonsense\nslot,src,dst,coflow\n";
      "# ports=2 slots=1\nwrong,header\n";
      "# ports=2 slots=1\nslot,src,dst,coflow\n9,0,0,0\n";
      "# ports=2 slots=1\nslot,src,dst,coflow\n1,0,x,0\n";
    ]

(* Blank lines count: a bad row is named by its line in the file. *)
let test_recorder_blank_lines () =
  match
    Recorder.of_csv "# ports=2 slots=1\n\nslot,src,dst,coflow\n\n1,0,x,0\n"
  with
  | _ -> Alcotest.fail "expected Failure"
  | exception Failure msg ->
    Alcotest.(check bool)
      (Printf.sprintf "%S names row 5" msg)
      true
      (Astring.String.is_infix ~affix:"bad row 5" msg)

(* a nonzero fabric rides as a fifth column; fabric-0 rows keep the
   legacy four, so single-fabric transcripts keep their bytes *)
let test_recorder_fabric_column () =
  let slot = [ tf 0 1 0 1; tf 1 0 0 0 ] in
  let log = Recorder.log ~ports:2 in
  Recorder.add log slot ~slots:1;
  let csv = Recorder.to_csv (Recorder.contents log) in
  let rows = String.split_on_char '\n' csv in
  Alcotest.(check bool) "fabric column only when nonzero" true
    (List.mem "1,0,1,0,1" rows && List.mem "1,1,0,0" rows);
  Alcotest.(check bool) "fabrics survive the round trip" true
    (List.sort compare (Recorder.of_csv csv).Recorder.slots.(0)
    = List.sort compare slot)

(* a batched decision lands as one slot per slot it covers *)
let test_recorder_log () =
  let log = Recorder.log ~ports:2 in
  Recorder.add log [ t 0 1 0 ] ~slots:2;
  Recorder.add log [] ~slots:1;
  let r = Recorder.contents log in
  check_int "ports" 2 r.Recorder.ports;
  Alcotest.(check bool) "slots in order" true
    (r.Recorder.slots = [| [ t 0 1 0 ]; [ t 0 1 0 ]; [] |]);
  List.iter
    (fun (label, f) ->
      match f () with
      | () -> Alcotest.failf "%s: expected Invalid_argument" label
      | exception Invalid_argument _ -> ())
    [ ("ports 0", fun () -> ignore (Recorder.log ~ports:0));
      ("ports -1", fun () -> ignore (Recorder.log ~ports:(-1)));
      ("slots 0", fun () -> Recorder.add log [ t 0 1 0 ] ~slots:0);
      ("slots -1", fun () -> Recorder.add log [] ~slots:(-1));
    ];
  check_int "a rejected add adds nothing" 3
    (Array.length (Recorder.contents log).Recorder.slots)

let test_recorder_file_roundtrip () =
  let demands = [ (0, fig1 ()) ] in
  let sim = Simulator.create ~ports:2 demands in
  let recording = record sim in
  let path = Filename.temp_file "sched" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Recorder.save path recording;
      let recording' = Recorder.load path in
      check_int "slots" (Array.length recording.Recorder.slots)
        (Array.length recording'.Recorder.slots))

let () =
  Alcotest.run "switchsim"
    [ ( "simulator",
        [ Alcotest.test_case "create" `Quick test_create;
          Alcotest.test_case "create mismatch" `Quick test_create_mismatch;
          Alcotest.test_case "empty coflow" `Quick
            test_empty_coflow_complete_immediately;
          Alcotest.test_case "step moves data" `Quick test_step_moves_data;
          Alcotest.test_case "Figure 1 in 3 slots" `Quick
            test_fig1_completes_in_3;
          Alcotest.test_case "ingress conflict" `Quick test_port_conflict_src;
          Alcotest.test_case "egress conflict" `Quick test_port_conflict_dst;
          Alcotest.test_case "no-demand transfer" `Quick test_no_demand_rejected;
          Alcotest.test_case "release gating" `Quick test_release_gating;
          Alcotest.test_case "idle accounting" `Quick test_idle_slots_count;
          Alcotest.test_case "multi-coflow slot" `Quick test_multi_coflow_slot;
          Alcotest.test_case "run with policy" `Quick test_run_policy;
          Alcotest.test_case "run budget" `Quick test_run_budget;
          Alcotest.test_case "weighted completion" `Quick test_twct;
          Alcotest.test_case "twct unfinished" `Quick test_twct_unfinished;
          Alcotest.test_case "utilization" `Quick test_utilization;
          Alcotest.test_case "port out of range" `Quick
            test_step_port_out_of_range;
          Alcotest.test_case "unknown coflow" `Quick test_step_unknown_coflow;
          Alcotest.test_case "completed coflow rejected" `Quick
            test_step_completed_coflow_rejected;
          Alcotest.test_case "add_demand" `Quick test_add_demand;
          Alcotest.test_case "add_demand validation" `Quick
            test_add_demand_validation;
          Alcotest.test_case "claims buffer on demand" `Quick
            test_claims_on_demand;
        ] );
      ( "dynamic-releases",
        [ Alcotest.test_case "set_release" `Quick test_set_release;
          Alcotest.test_case "validation" `Quick test_set_release_validation;
          Alcotest.test_case "validate hook" `Quick test_validate_hook;
        ] );
      ( "recorder",
        [ Alcotest.test_case "record & replay" `Quick test_record_and_replay;
          Alcotest.test_case "csv roundtrip" `Quick
            test_recorder_csv_roundtrip;
          Alcotest.test_case "csv roundtrip with idle gaps" `Quick
            test_recorder_csv_gaps_roundtrip;
          Alcotest.test_case "tampering detected" `Quick
            test_recorder_detects_tampering;
          Alcotest.test_case "bad csv" `Quick test_recorder_bad_csv;
          Alcotest.test_case "blank lines counted" `Quick
            test_recorder_blank_lines;
          Alcotest.test_case "file roundtrip" `Quick
            test_recorder_file_roundtrip;
          Alcotest.test_case "fabric column roundtrip" `Quick
            test_recorder_fabric_column;
          Alcotest.test_case "log builder" `Quick test_recorder_log;
        ] );
      ( "fabric",
        [ Alcotest.test_case "topology" `Quick test_fabric_topology;
          Alcotest.test_case "topology validation" `Quick
            test_fabric_topology_validation;
          Alcotest.test_case "core enforced" `Quick test_fabric_enforces_core;
          Alcotest.test_case "greedy respects core" `Quick
            test_fabric_greedy_respects_core;
          Alcotest.test_case "non-blocking degenerates" `Quick
            test_fabric_nonblocking_equals_plain_greedy;
          Alcotest.test_case "core budget never starves rack-local" `Quick
            test_fabric_greedy_no_rack_local_starvation;
        ] );
      ( "net",
        [ Alcotest.test_case "accessors" `Quick test_net_accessors;
          Alcotest.test_case "two-tier" `Quick test_net_two_tier;
          Alcotest.test_case "validation" `Quick test_net_validation;
          Alcotest.test_case "rate-weighted decrement" `Quick
            test_multi_fabric_rate_decrement;
          Alcotest.test_case "per-fabric port exclusivity" `Quick
            test_multi_fabric_port_exclusivity;
          Alcotest.test_case "fabric out of range" `Quick
            test_multi_fabric_out_of_range;
          Alcotest.test_case "rate-aware batch" `Quick
            test_multi_fabric_batch_rate_aware;
          Alcotest.test_case "bitset sweep never starves rack-local" `Quick
            test_policy_matching_no_rack_local_starvation;
          Alcotest.test_case "one pair on two fabrics" `Quick
            test_multi_fabric_pair_twice;
          Alcotest.test_case "distinct pairs on two fabrics" `Quick
            test_multi_fabric_distinct_pairs;
          Alcotest.test_case "two-fabric step allocation" `Quick
            test_multi_fabric_step_allocation;
        ] );
    ]

(* The sparse demand matrix against a plain reference, and the
   event-driven batch step.

   [Matrix.Mat] packs each row's values into one array, located by the
   row's column-support bitset, plus incrementally maintained aggregates
   and bitset views (live rows, per-row column support) that the matching
   kernels intersect with free-port masks.  These tests drive it and a
   test-local [int array array] through random operation sequences
   (copies forked midway included) and check every view against a
   recompute, pin its footprint and copy isolation, pin the batch step's
   size, equivalence and error contract, and A/B the batched engine loop
   against the slot-by-slot one across policies, arrivals and mid-run
   demand growth. *)

open Matrix
open Switchsim

let check_int = Alcotest.(check int)

(* ---------- Mat against an int array array reference ---------- *)

type op =
  | Set of int * int * int
  | Add of int * int * int
  | Replace of int * int * int
  | Fork

(* Dimensions up to 130 cross the 62-bit word boundary twice, so every
   check also exercises two- and three-word masks and ranks. *)
let ops_gen =
  QCheck.Gen.(
    let* m = int_range 1 130 in
    let* n_ops = int_range 0 160 in
    let* seed = int_range 0 1_000_000 in
    let st = Random.State.make [| seed |] in
    let ops =
      List.init n_ops (fun _ ->
          (* half the ops land in the first three rows, so rows fill up,
             grow their arrays and shift in the middle *)
          let i =
            Random.State.int st (if Random.State.bool st then min m 3 else m)
          and j = Random.State.int st m in
          (* bias towards zeros so 0 -> v -> 0 transitions (the bitset
             clear paths) actually happen; adds may go negative *)
          let v () =
            if Random.State.bool st then 0 else Random.State.int st 9
          in
          match Random.State.int st 20 with
          | 0 -> Fork
          | n when n < 8 -> Set (i, j, v ())
          | n when n < 14 -> Replace (i, j, v ())
          | _ -> Add (i, j, Random.State.int st 13 - 4))
    in
    return (m, ops))

let arb_ops =
  QCheck.make
    ~print:(fun (m, ops) ->
      Printf.sprintf "m=%d ops=[%s]" m
        (String.concat "; "
           (List.map
              (function
                | Set (i, j, v) -> Printf.sprintf "(%d,%d)<-%d" i j v
                | Add (i, j, v) -> Printf.sprintf "(%d,%d)+=%d" i j v
                | Replace (i, j, v) -> Printf.sprintf "(%d,%d):=%d" i j v
                | Fork -> "fork")
              ops)))
    ops_gen

(* Applies [ops] to both; a rejected add must leave [Mat] untouched.  A
   [Fork] sends the later ops to a [Mat.copy] of both, and the pairs left
   behind are returned too, newest first, so a check can see that no
   copy wrote through to its original. *)
let apply_ops m ops =
  let r = ref (Array.make_matrix m m 0) and d = ref (Mat.make m) in
  let forks = ref [] in
  List.iter
    (function
      | Set (i, j, v) ->
        !r.(i).(j) <- v;
        Mat.set !d i j v
      | Add (i, j, v) -> (
        if !r.(i).(j) + v >= 0 then !r.(i).(j) <- !r.(i).(j) + v;
        try Mat.add_entry !d i j v with Invalid_argument _ -> ())
      | Replace (i, j, v) ->
        Mat.replace !d i j ~old:!r.(i).(j) v;
        !r.(i).(j) <- v
      | Fork ->
        forks := (!r, !d) :: !forks;
        r := Array.map Array.copy !r;
        d := Mat.copy !d)
    ops;
  (!r, !d, !forks)

let bit mask b = mask land (1 lsl Bits.bit_of b) <> 0

let row_sum r i = Array.fold_left ( + ) 0 r.(i)

(* The reference's nonzeros in row-major, column-ascending order. *)
let entries_of r =
  let m = Array.length r in
  let entries = ref [] in
  for i = m - 1 downto 0 do
    for j = m - 1 downto 0 do
      if r.(i).(j) > 0 then entries := (i, j, r.(i).(j)) :: !entries
    done
  done;
  !entries

(* Runs [checks] with an [expect] that records any failure. *)
let all_hold checks =
  let ok = ref true in
  checks (fun b -> if not b then ok := false);
  !ok

let prop_values =
  QCheck.Test.make ~name:"Mat agrees with an array reference"
    ~count:300 arb_ops (fun (m, ops) ->
      let r, d, _ = apply_ops m ops in
      let col_sum j = Array.fold_left (fun acc row -> acc + row.(j)) 0 r in
      let row_sums = Array.init m (row_sum r) in
      let sums = Array.append row_sums (Array.init m col_sum) in
      let entries = entries_of r in
      let seen = ref [] in
      Mat.iter_nonzero (fun i j v -> seen := (i, j, v) :: !seen) d;
      all_hold (fun expect ->
          for i = 0 to m - 1 do
            for j = 0 to m - 1 do
              expect (Mat.get d i j = r.(i).(j))
            done
          done;
          expect (Mat.row_sums d = row_sums);
          expect (Mat.col_sums d = Array.init m col_sum);
          expect (Mat.total d = Array.fold_left ( + ) 0 row_sums);
          expect (Mat.load d = Array.fold_left max 0 sums);
          expect (Mat.nonzero_count d = List.length entries);
          expect (Mat.is_zero d = (entries = []));
          (* the iteration-order contract: row-major, column ascending *)
          expect (List.rev !seen = entries)))

let prop_bitset_views =
  QCheck.Test.make ~name:"Mat bitset views match a recompute" ~count:300
    arb_ops (fun (m, ops) ->
      let r, d, _ = apply_ops m ops in
      let words = Bits.words_for m in
      all_hold (fun expect ->
          (* no stray bits above m in any word of any view *)
          for w = 0 to words - 1 do
            let valid =
              Bits.low_mask
                (min Bits.bits_per_word (m - (w * Bits.bits_per_word)))
            in
            expect (Mat.live_mask d w land lnot valid = 0);
            for i = 0 to m - 1 do
              expect (Mat.row_mask d i w land lnot valid = 0)
            done
          done;
          for i = 0 to m - 1 do
            expect
              (bit (Mat.live_mask d (Bits.word_of i)) i = (row_sum r i > 0));
            for j = 0 to m - 1 do
              expect
                (bit (Mat.row_mask d i (Bits.word_of j)) j = (r.(i).(j) > 0))
            done
          done))

let prop_row_seq =
  QCheck.Test.make ~name:"Mat.row_seq equals a row scan" ~count:200 arb_ops
    (fun (m, ops) ->
      let r, d, _ = apply_ops m ops in
      let entries = entries_of r in
      all_hold (fun expect ->
          for i = 0 to m - 1 do
            expect
              (List.of_seq (Mat.row_seq d i)
              = List.filter_map
                  (fun (i', j, v) -> if i' = i then Some (j, v) else None)
                  entries)
          done))

(* Every matrix a run leaves behind, the forked-off originals included,
   equals a fresh [of_arrays] build of its reference: same entries, and
   the same sums and bitsets, however it got there. *)
let prop_equals_rebuild =
  QCheck.Test.make ~name:"Mat forks equal an of_arrays rebuild" ~count:300
    arb_ops (fun (m, ops) ->
      let r, d, forks = apply_ops m ops in
      List.for_all
        (fun (r, d) ->
          Mat.equal d (Mat.of_arrays r)
          && Mat.equal (Mat.copy d) d
          &&
          let ok = ref true in
          for i = 0 to m - 1 do
            for j = 0 to m - 1 do
              if Mat.get d i j <> r.(i).(j) then ok := false
            done
          done;
          !ok)
        ((r, d) :: forks))

(* The SWAR popcount against Kernighan's loop, on words with any subset
   of the 62 payload bits set, the full word and the top bit included. *)
let prop_popcount =
  QCheck.Test.make ~name:"Bits.popcount counts every payload bit" ~count:500
    QCheck.(pair (int_range 0 1_000_000) (int_range 0 62))
    (fun (seed, width) ->
      let st = Random.State.make [| seed |] in
      let full = Bits.low_mask Bits.bits_per_word in
      let x =
        (Random.State.bits st
        lor (Random.State.bits st lsl 30)
        lor (Random.State.bits st lsl 60))
        land Bits.low_mask width
      in
      let rec kernighan x acc =
        if x = 0 then acc else kernighan (x land (x - 1)) (acc + 1)
      in
      List.for_all
        (fun x -> Bits.popcount x = kernighan x 0)
        [ x; full; full land lnot x; 1 lsl (Bits.bits_per_word - 1) ])

(* The trailing-zero count against a shift loop: on every bit position
   0-61 as the lowest set bit, above it a random word's payload bits. *)
let prop_ntz =
  QCheck.Test.make ~name:"Bits.ntz finds the lowest payload bit" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let r =
        Random.State.bits st
        lor (Random.State.bits st lsl 30)
        lor (Random.State.bits st lsl 60)
      in
      let rec zeros x acc = if x land 1 = 1 then acc else zeros (x lsr 1) (acc + 1) in
      List.for_all
        (fun t ->
          let above =
            r land Bits.low_mask Bits.bits_per_word land lnot (Bits.low_mask (t + 1))
          in
          let x = above lor (1 lsl t) in
          Bits.ntz x = t && Bits.ntz x = zeros x 0 && Bits.ntz (1 lsl t) = t)
        (List.init Bits.bits_per_word Fun.id))

(* [Mat.claim_rows] is [Mat.first_col] run row by row over the same
   masks, each claim cleared from both before the next row probes: the
   same pairs in the same order, the same masks left behind.  Half the
   matrices sit at 61-64 ports, where the last column and row of a word
   meet the next; rows are partly drained (some emptied), and the free
   masks are dense, random or sparse, at offset 0 or at a second fabric's
   offset, whose untouched words must come out as they went in. *)
let prop_claim_rows =
  QCheck.Test.make ~name:"claim sweep = row-by-row first_col sweep"
    ~count:400 QCheck.(int_range 0 1_000_000) (fun seed ->
      let st = Random.State.make [| seed |] in
      let m =
        if Random.State.bool st then 61 + Random.State.int st 4
        else 1 + Random.State.int st 70
      in
      let d =
        Mat.random ~density:(0.02 +. Random.State.float st 0.5) ~max_entry:3 st
          m
      in
      for i = 0 to m - 1 do
        if Random.State.int st 3 = 0 then
          for j = 0 to m - 1 do
            if Random.State.bool st then Mat.set d i j 0
          done
      done;
      let words = Bits.words_for m in
      let off = if Random.State.bool st then 0 else words in
      let word () =
        Random.State.bits st
        lor (Random.State.bits st lsl 30)
        lor (Random.State.bits st lsl 60)
      in
      let mask () =
        Array.init (2 * words) (fun v ->
            let free =
              match Random.State.int st 3 with
              | 0 -> -1
              | 1 -> word ()
              | _ -> word () land word ()
            in
            let base = v mod words * Bits.bits_per_word in
            free land Bits.low_mask (min Bits.bits_per_word (m - base)))
      in
      let src = mask () and dst = mask () in
      let src' = Array.copy src and dst' = Array.copy dst in
      let out = Array.make (2 * m) (-1) in
      let n = Mat.claim_rows d ~src ~dst ~off ~out in
      let want = ref [] in
      for i = 0 to m - 1 do
        let w = off + Bits.word_of i and b = 1 lsl Bits.bit_of i in
        if bit (Mat.live_mask d (Bits.word_of i)) i && src'.(w) land b <> 0
        then begin
          let j = Mat.first_col d i ~avail:dst' ~off in
          if j >= 0 then begin
            src'.(w) <- src'.(w) lxor b;
            let wd = off + Bits.word_of j in
            dst'.(wd) <- dst'.(wd) lxor (1 lsl Bits.bit_of j);
            want := (i, j) :: !want
          end
        end
      done;
      n = List.length !want
      && List.init n (fun p -> (out.(2 * p), out.((2 * p) + 1)))
         = List.rev !want
      && src = src' && dst = dst')

let test_copy_isolated () =
  let s = Mat.make 70 in
  Mat.set s 65 3 4;
  let c = Mat.copy s in
  Mat.set c 65 3 0;
  Mat.set c 2 69 7;
  check_int "original value" 4 (Mat.get s 65 3);
  check_int "original nnz" 1 (Mat.nonzero_count s);
  check_int "original row sum" 4 (Mat.row_sum s 65);
  check_int "original column-support word" (1 lsl 3) (Mat.row_mask s 65 0);
  check_int "original live rows" (1 lsl (65 - Bits.bits_per_word))
    (Mat.live_mask s 1);
  check_int "copy diverged" 7 (Mat.get c 2 69)

(* ---------- footprint ---------- *)

(* Heap words reachable from each demand, summed.  The bounds, about 15%
   above what packed rows measure (11.8% of dense at 150 ports, 0.79x a
   dense 8-port matrix), catch a dense copy, a per-row bitset array or a
   tree node per entry creeping back into [Mat]. *)
let demand_words demands =
  List.fold_left (fun acc d -> acc + Obj.reachable_words (Obj.repr d)) 0 demands

let test_footprint_paper_scale () =
  let inst =
    Experiments.Exp_scale.instance Experiments.Config.default
      ~coflows:Experiments.Exp_scale.coflows
  in
  let m = Workload.Instance.ports inst in
  let demands = List.map snd (Workload.Instance.demands inst) in
  let dense = List.length demands * m * m in
  let words = demand_words demands in
  if 200 * words > 27 * dense then
    Alcotest.failf "E18 demands take %d words, over 13.5%% of dense %d" words
      dense

let test_footprint_soak_ports () =
  let m = Service.Soak.ports Service.Soak.default_config and n = 2000 in
  let params = Workload.Fb_like.default_params ~ports:m ~coflows:n in
  let st = Random.State.make [| 17 |] in
  let demands = List.init n (fun _ -> Workload.Fb_like.draw_demand params st) in
  let words = demand_words demands in
  let bound = 0.91 *. float_of_int (n * ((m * m) + 4)) in
  if float_of_int words > bound then
    Alcotest.failf "%d-port demands take %.1f words each, over %.1f" m
      (float_of_int words /. float_of_int n)
      (bound /. float_of_int n)

(* ---------- runs leave their inputs alone ---------- *)

let test_run_keeps_instance () =
  let inst =
    Workload.Fb_like.generate_with_arrivals ~mean_gap:3 ~ports:10 ~coflows:24
      (Random.State.make [| 5 |])
  in
  let demands () = List.map snd (Workload.Instance.demands inst) in
  let before = List.map Mat.copy (demands ()) in
  let order = Core.Ordering.by_load_over_weight inst in
  let grouped =
    Core.Scheduler.case_policy ~case:Core.Scheduler.Group_backfill inst order
  in
  ignore (Core.Engine.run inst (Core.Baselines.greedy_policy order));
  ignore (Core.Engine.run inst grouped);
  List.iter2
    (fun b d ->
      Alcotest.(check bool) "demand unchanged by the run" true (Mat.equal b d))
    before (demands ())

(* ---------- the batch step's contract ---------- *)

let two_coflow_sim () =
  Simulator.create ~ports:2
    [ (0, Mat.of_arrays [| [| 5; 0 |]; [| 0; 5 |] |]);
      (2, Mat.of_arrays [| [| 0; 3 |]; [| 0; 0 |] |]);
    ]

let transfers_0 =
  [ { Simulator.src = 0; dst = 0; coflow = 0; fabric = 0 };
    { Simulator.src = 1; dst = 1; coflow = 0; fabric = 0 };
  ]

let test_batch_equals_repeated_step () =
  let a = two_coflow_sim () and b = two_coflow_sim () in
  check_int "coflow 1's release sizes the batch" 2
    (Simulator.step_batch a transfers_0 ~cap:3);
  check_int "the cap sizes the batch" 1
    (Simulator.step_batch a transfers_0 ~cap:1);
  for _ = 1 to 3 do
    Simulator.step b transfers_0
  done;
  check_int "clock" (Simulator.now b) (Simulator.now a);
  check_int "remaining" (Simulator.remaining_at b 0 0 0)
    (Simulator.remaining_at a 0 0 0);
  Alcotest.(check (option int))
    "first service" (Simulator.first_service_time b 0)
    (Simulator.first_service_time a 0);
  (* finish coflow 0 exactly at the batch boundary: completion lands on
     the batch's final slot, as the slot-by-slot path would place it *)
  check_int "the demand sizes the batch" 2
    (Simulator.step_batch a transfers_0 ~cap:20);
  Alcotest.(check (option int))
    "completion at batch end" (Some 5) (Simulator.completion_time a 0)

let test_batch_size_positive () =
  let s = two_coflow_sim () in
  try
    ignore (Simulator.step_batch s transfers_0 ~cap:0);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* An idle batch runs to the next pending release: its size is the
   release gap, read by the same binary search over the sorted release
   dates as [released_count]. *)
let idle_gap s = Simulator.step_batch s [] ~cap:100

let test_release_cache_invalidation () =
  check_int "initial gap" 2 (idle_gap (two_coflow_sim ()));
  let s = two_coflow_sim () in
  check_int "released at 0" 1 (Simulator.released_count s);
  Simulator.set_release s 1 7;
  Simulator.step s transfers_0;
  check_int "gap reflects the moved release and follows the clock" 6
    (idle_gap s);
  check_int "released at its moved date" 2 (Simulator.released_count s);
  check_int "nothing pending: the cap" 100 (idle_gap s);
  let s = two_coflow_sim () in
  Simulator.step s transfers_0;
  Simulator.set_release s 1 (Simulator.now s);
  check_int "released by set_release to now" 2 (Simulator.released_count s);
  check_int "nothing pending after set_release to now" 100 (idle_gap s)

(* slots until the first release date after the clock, [max_int] for
   none: a recount over the release times *)
let recount_gap s =
  let now = Simulator.now s in
  List.fold_left
    (fun g r -> if r > now then min g (r - now) else g)
    max_int
    (List.init (Simulator.num_coflows s) (Simulator.release_time s))

(* The sorted dates are moved in place by [set_release]; the released
   count and the batch step's release bound must match a recount over the
   release times after any mix of moves (earlier, later, to now, to
   max_int) and clock advances. *)
let prop_release_counts =
  QCheck.Test.make ~name:"release counts track set_release" ~count:200
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 1 + Random.State.int st 12 in
      let s =
        Simulator.create ~ports:1
          (List.init n (fun _ ->
               (Random.State.int st 10, Mat.of_arrays [| [| 1 |] |])))
      in
      let ok = ref true in
      for _ = 1 to 30 do
        let now = Simulator.now s in
        let k = Random.State.int st n in
        if not (Simulator.released s k) then
          Simulator.set_release s k
            (match Random.State.int st 4 with
            | 0 -> now
            | 1 -> max_int
            | _ -> now + Random.State.int st 10);
        if Random.State.bool st then begin
          let cap = 1 + Random.State.int st 4 in
          let want = min cap (recount_gap s) in
          ok := !ok && Simulator.step_batch s [] ~cap = want
        end;
        let now = Simulator.now s in
        let dates = List.init n (Simulator.release_time s) in
        let pending = List.filter (fun r -> r > now) dates in
        ok := !ok && Simulator.released_count s = n - List.length pending
      done;
      !ok)

(* A random valid slot: each released entry with demand is offered to
   one random fabric and taken there, with probability 1/2, when both its
   ports are still free on that fabric.  Each entry is offered once, so
   none is drained by two fabrics. *)
let random_slot st sim =
  let m = Simulator.ports sim and kf = Simulator.num_fabrics sim in
  let src = Array.make (kf * m) false and dst = Array.make (kf * m) false in
  let out = ref [] in
  for k = 0 to Simulator.num_coflows sim - 1 do
    if Simulator.released sim k then
      Simulator.iter_remaining sim k (fun i j _ ->
          let f = Random.State.int st kf in
          if Random.State.bool st && not (src.((f * m) + i) || dst.((f * m) + j))
          then begin
            src.((f * m) + i) <- true;
            dst.((f * m) + j) <- true;
            out := { Simulator.src = i; dst = j; coflow = k; fabric = f } :: !out
          end)
  done;
  !out

(* slots each served entry survives: ceil (have / rate) *)
let survives sim transfers =
  List.fold_left
    (fun b { Simulator.src; dst; coflow; fabric } ->
      let have = Simulator.remaining_at sim coflow src dst
      and rate = Simulator.fabric_rate sim fabric in
      min b ((have + rate - 1) / rate))
    max_int transfers

let same_state a b =
  Simulator.now a = Simulator.now b
  && List.for_all
       (fun k ->
         Mat.equal (Simulator.remaining a k) (Simulator.remaining b k)
         && Simulator.first_service_time a k = Simulator.first_service_time b k
         && Simulator.completion_time a k = Simulator.completion_time b k)
       (List.init (Simulator.num_coflows a) Fun.id)

(* The batch step sizes its own batch.  On random instances (releases
   past the clock and never-released coflows included), random nets of
   1-3 fabrics at rates 1-4 and random valid slots, a batch under a cap
   of 1-20 commits exactly min (cap, release gap, min ceil (have / rate))
   slots, leaves the state [n] calls of [step] leave, and stops short of
   its cap only where one more slot would serve an emptied entry or
   follow a release. *)
let prop_batch_size =
  QCheck.Test.make ~name:"batch size = min (cap, gap, demand)"
    ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xBA7C |] in
      let m = 2 + Random.State.int st 11 and n = 1 + Random.State.int st 6 in
      let rates =
        List.init (1 + Random.State.int st 3) (fun _ ->
            1 + Random.State.int st 4)
      in
      let demands =
        List.init n (fun _ ->
            ( (match Random.State.int st 4 with
              | 0 -> max_int
              | 1 -> 0
              | _ -> Random.State.int st 12),
              Mat.random ~density:0.4 ~max_entry:9 st m ))
      in
      let make () =
        Simulator.create ~net:(Net.uniform ~ports:m ~rates) ~ports:m demands
      in
      let a = make () and b = make () in
      for _ = 1 to Random.State.int st 4 do
        let ts = random_slot st a in
        Simulator.step a ts;
        Simulator.step b ts
      done;
      let transfers = random_slot st a in
      let cap = 1 + Random.State.int st 20 in
      let start = Simulator.now a in
      let want = min cap (min (recount_gap a) (survives a transfers)) in
      let got = Simulator.step_batch a transfers ~cap in
      for _ = 1 to got do
        Simulator.step b transfers
      done;
      let stopped_by_event () =
        List.exists
          (fun { Simulator.src; dst; coflow; _ } ->
            Simulator.remaining_at a coflow src dst = 0)
          transfers
        || List.exists
             (fun k -> Simulator.release_time a k = start + got)
             (List.init n Fun.id)
      in
      got = want && same_state a b && (got = cap || stopped_by_event ()))

(* ---------- batched engine loop vs slot-by-slot, across policies ---------- *)

let ab_instance seed =
  let st = Random.State.make [| seed; 0xAB |] in
  Workload.Fb_like.generate_with_arrivals ~mean_gap:3 ~ports:10 ~coflows:24 st

let c_reused = Obs.Counter.make "sched.matchings_reused"

let c_backfilled = Obs.Counter.make "sched.backfilled_units"

(* A run and its books: the reuse and backfill counter deltas, and the
   sums of [built], [reused] and [backfilled] over its slot events. *)
type booked = {
  result : Core.Engine.result;
  reused : int;
  backfilled : int;
  events : int * int * int;
}

let run_booked ?sim inst p =
  let reused0 = Obs.Counter.value c_reused
  and backfilled0 = Obs.Counter.value c_backfilled in
  let was = Obs.Events.enabled () in
  Obs.Events.set_enabled true;
  let result, events =
    Fun.protect
      ~finally:(fun () -> Obs.Events.set_enabled was)
      (fun () -> Obs.Events.capture (fun () -> Core.Engine.run ?sim inst p))
  in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 events in
  { result;
    reused = Obs.Counter.value c_reused - reused0;
    backfilled = Obs.Counter.value c_backfilled - backfilled0;
    events =
      ( sum (fun e -> e.Obs.Events.built),
        sum (fun e -> e.Obs.Events.reused),
        sum (fun e -> e.Obs.Events.backfilled) );
  }

(* [p] batched against its [Policy.unbatched] twin, each on a fresh
   simulator from [sim] when given: the same schedule, matchings and
   books *)
let check_same_run label ?sim inst p =
  let run p = run_booked ?sim:(Option.map (fun make -> make ()) sim) inst p in
  let a = run (Core.Policy.unbatched p) and b = run p in
  Alcotest.(check (array int))
    (label ^ ": completion times") a.result.Core.Engine.completion
    b.result.Core.Engine.completion;
  Alcotest.(check (float 1e-9)) (label ^ ": twct") a.result.Core.Engine.twct
    b.result.Core.Engine.twct;
  check_int (label ^ ": slots") a.result.Core.Engine.slots
    b.result.Core.Engine.slots;
  check_int (label ^ ": matchings") a.result.Core.Engine.matchings
    b.result.Core.Engine.matchings;
  check_int (label ^ ": matchings reused") a.reused b.reused;
  check_int (label ^ ": backfilled units") a.backfilled b.backfilled;
  Alcotest.(check (triple int int int))
    (label ^ ": events built, reused, backfilled")
    a.events b.events

let test_batch_ab_greedy () =
  List.iter
    (fun seed ->
      let inst = ab_instance seed in
      let order = Core.Ordering.by_load_over_weight inst in
      check_same_run
        (Printf.sprintf "greedy seed %d" seed)
        inst
        (Core.Baselines.greedy_policy order))
    [ 1; 2; 3 ]

(* cases (a)-(d) and the aggressive top-up, on the single switch, a
   two-tier net (two racks of 5, two core crossings per slot) and two
   fabrics at rates 2 and 1 *)
let test_batch_ab_scheduler_cases () =
  let nets =
    [ ("single", None);
      ("two-tier", Some (Net.two_tier ~ports:10 ~rack_size:5 ~core_capacity:2));
      ("k=2", Some (Net.uniform ~ports:10 ~rates:[ 2; 1 ]));
    ]
  in
  List.iter
    (fun seed ->
      let inst = ab_instance seed in
      let order = Core.Ordering.by_load_over_weight inst in
      let policies =
        List.map
          (fun case ->
            ( "case " ^ Core.Scheduler.case_name case,
              Core.Scheduler.case_policy ~case inst order ))
          Core.Scheduler.all_cases
        @ [ ( "aggressive",
              Core.Scheduler.as_policy ~backfill:true ~aggressive:true
                ~describe:"aggressive"
                (Core.Grouping.deterministic inst order) );
          ]
      in
      List.iter
        (fun (net_name, net) ->
          let sim =
            Option.map
              (fun net () ->
                Simulator.create ~net
                  ~ports:(Workload.Instance.ports inst)
                  (Workload.Instance.demands inst))
              net
          in
          List.iter
            (fun (name, p) ->
              check_same_run
                (Printf.sprintf "%s on %s seed %d" name net_name seed)
                ?sim inst p)
            policies)
        nets)
    [ 1; 2 ]

let test_batch_ab_grown_demand () =
  (* a straggler-style mid-instance demand growth (the fault layer's
     add_demand path) must not break the A/B: both legs see the grown
     sim before their first slot *)
  let inst = ab_instance 4 in
  let order = Core.Ordering.by_load_over_weight inst in
  let grown () =
    let s =
      Simulator.create
        ~ports:(Workload.Instance.ports inst)
        (Workload.Instance.demands inst)
    in
    Simulator.add_demand s 0 ~src:0 ~dst:1 17;
    Simulator.add_demand s 1 ~src:9 ~dst:9 11;
    s
  in
  check_same_run "grown demand" ~sim:grown inst
    (Core.Baselines.greedy_policy order)

let () =
  Alcotest.run "sparse"
    [ ( "mat",
        List.map QCheck_alcotest.to_alcotest
          [ prop_values;
            prop_bitset_views;
            prop_row_seq;
            prop_equals_rebuild;
            prop_popcount;
            prop_ntz;
            prop_claim_rows;
          ] );
      ( "mat_unit",
        [ Alcotest.test_case "copy isolates bitsets" `Quick test_copy_isolated;
          Alcotest.test_case "Engine.run leaves demands intact" `Quick
            test_run_keeps_instance;
          Alcotest.test_case "footprint at 150 ports" `Quick
            test_footprint_paper_scale;
          Alcotest.test_case "footprint at the soak's ports" `Quick
            test_footprint_soak_ports;
        ] );
      ( "step_batch",
        [ Alcotest.test_case "batch = repeated step" `Quick
            test_batch_equals_repeated_step;
          QCheck_alcotest.to_alcotest prop_batch_size;
          Alcotest.test_case "batch size must be positive" `Quick
            test_batch_size_positive;
          Alcotest.test_case "release cache tracks set_release" `Quick
            test_release_cache_invalidation;
          QCheck_alcotest.to_alcotest prop_release_counts;
        ] );
      ( "batch_ab",
        [ Alcotest.test_case "greedy, arrivals" `Quick test_batch_ab_greedy;
          Alcotest.test_case "scheduler cases a-d, arrivals" `Quick
            test_batch_ab_scheduler_cases;
          Alcotest.test_case "grown demand" `Quick test_batch_ab_grown_demand;
        ] );
    ]

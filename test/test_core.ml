(* Tests for the paper's algorithms: BvN decomposition (Algorithm 1), the LP
   relaxations, orderings, grouping, the scheduling cases (Algorithm 2), the
   randomized variant, and the theory audits of §3. *)

open Matrix
open Workload
open Core

let check_int = Alcotest.(check int)

let fig1 () = Mat.of_arrays [| [| 1; 2 |]; [| 2; 1 |] |]

let mk_coflow ?(id = 0) ?(release = 0) ?(weight = 1.0) demand =
  { Instance.id; release; weight; demand }

let fig1_instance () = Instance.make ~ports:2 [ mk_coflow (fig1 ()) ]

let random_instance ?(ports = 4) ?(coflows = 5) seed =
  let st = Random.State.make [| seed |] in
  Synthetic.uniform ~ports ~coflows ~density:0.4 ~max_size:4 st

(* ---------- Coflow loads ---------- *)

let test_load_fig1 () = check_int "rho" 3 (Coflow.load (fig1 ()))

let test_cumulative_appendix_b () =
  Alcotest.(check (array int)) "V = [18; 30]" Counterexample.v
    (Coflow.cumulative_loads
       [| Counterexample.coflow_1; Counterexample.coflow_2 |])

let test_effective_bottleneck () =
  Alcotest.(check (float 1e-9)) "rho/w" 1.5
    (Coflow.effective_bottleneck (fig1 ()) ~weight:2.0)

(* ---------- Algorithm 1 (BvN) ---------- *)

let test_augment_balances () =
  let d = fig1 () in
  let a = Bvn.augment d in
  let rho = Mat.load d in
  for p = 0 to 1 do
    check_int "row balanced" rho (Mat.row_sum a p);
    check_int "col balanced" rho (Mat.col_sum a p)
  done;
  Alcotest.(check bool) "dominates input" true (Mat_helpers.leq d a)

let test_schedule_fig1_duration () =
  let s = Bvn.schedule (fig1 ()) in
  check_int "exactly rho slots" 3 (Bvn.duration s)

let test_schedule_zero () =
  Alcotest.(check int) "empty schedule" 0 (List.length (Bvn.schedule (Mat.make 3)))

let test_decompose_unbalanced_rejected () =
  let unbalanced = Mat.of_arrays [| [| 1; 2 |]; [| 0; 1 |] |] in
  (try
     ignore (Bvn.decompose unbalanced);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* [restore m s] rebuilds the (augmented) matrix a BvN schedule clears,
   [sum q_u * Pi_u]: the oracle the decomposition is checked against. *)
let restore m (s : Bvn.schedule) =
  let d = Mat.make m in
  List.iter
    (fun (matching, q) ->
      Array.iteri (fun i j -> Mat.add_entry d i j q) matching)
    s;
  d

let test_restore_equals_augmented () =
  let d = Mat.of_arrays [| [| 2; 0; 1 |]; [| 0; 3; 0 |]; [| 1; 1; 1 |] |] in
  let a = Bvn.augment d in
  let s = Bvn.decompose a in
  Alcotest.(check bool) "sum q Pi = augmented" true
    (Mat.equal (restore 3 s) a)

let bvn_arb =
  let gen =
    QCheck.Gen.(
      let* m = int_range 1 8 in
      let* seed = int_range 0 1_000_000 in
      let st = Random.State.make [| seed |] in
      return (Mat.random ~density:0.5 ~max_entry:7 st m))
  in
  QCheck.make ~print:Mat_helpers.to_string gen

let prop_bvn_duration_is_load =
  QCheck.Test.make ~name:"BvN duration equals rho" ~count:200 bvn_arb (fun d ->
      Bvn.duration (Bvn.schedule d) = Mat.load d)

let prop_bvn_matchings_polynomial =
  QCheck.Test.make ~name:"BvN uses at most m^2 matchings" ~count:200 bvn_arb
    (fun d ->
      Bvn.matchings_used (Bvn.schedule d) <= Mat.dim d * Mat.dim d)

let prop_bvn_covers_demand =
  QCheck.Test.make ~name:"BvN covers every demand entry" ~count:200 bvn_arb
    (fun d ->
      Mat_helpers.leq d (restore (Mat.dim d) (Bvn.schedule d)))

let prop_bvn_matchings_valid =
  QCheck.Test.make ~name:"BvN emits genuine matchings" ~count:200 bvn_arb
    (fun d ->
      List.for_all
        (fun (matching, q) ->
          (* a permutation of the ports: destination per source *)
          q > 0
          && List.sort compare (Array.to_list matching)
             = List.init (Mat.dim d) Fun.id)
        (Bvn.schedule d))

(* The list-and-[Seq] decomposition [Bvn.decompose] replaced, kept as its
   oracle: Kuhn augmentation over each row's nonzeros (column ascending,
   visited columns stamped), every matched entry peeled in the matrix,
   vanished rows re-augmented highest first.  The kernel must return its
   exact (matching, q) sequence. *)
let oracle_decompose d =
  let m = Mat.dim d in
  let rho = Mat.load d in
  if rho = 0 then []
  else begin
    let t = Mat.copy d in
    let match_col = Array.make m (-1) and match_row = Array.make m (-1) in
    let visited = Array.make m 0 and stamp = ref 0 in
    let rec augment i =
      let rec scan s =
        match s () with
        | Seq.Nil -> false
        | Seq.Cons ((j, _), rest) ->
          if visited.(j) <> !stamp then begin
            visited.(j) <- !stamp;
            if match_row.(j) = -1 || augment match_row.(j) then begin
              match_col.(i) <- j;
              match_row.(j) <- i;
              true
            end
            else scan rest
          end
          else scan rest
      in
      scan (Mat.row_seq t i)
    in
    let rematch i =
      incr stamp;
      if not (augment i) then failwith "oracle: no perfect matching"
    in
    for i = 0 to m - 1 do
      rematch i
    done;
    let remaining = ref rho and acc = ref [] in
    while !remaining > 0 do
      let q = ref max_int in
      for i = 0 to m - 1 do
        q := min !q (Mat.get t i match_col.(i))
      done;
      let q = !q in
      acc := (Bvn.pairs match_col, q) :: !acc;
      remaining := !remaining - q;
      let broken = ref [] in
      for i = 0 to m - 1 do
        let j = match_col.(i) in
        Mat.add_entry t i j (-q);
        if Mat.get t i j = 0 then broken := i :: !broken
      done;
      if !remaining > 0 then
        List.iter
          (fun i ->
            let j = match_col.(i) in
            if match_row.(j) = i then match_row.(j) <- -1;
            match_col.(i) <- -1;
            rematch i)
          !broken
    done;
    List.rev !acc
  end

(* Augmented random demands from 1 to 70 ports, weighted to the 62-bit
   word boundary (61-64), at densities from a permutation to full. *)
let bvn_oracle_arb =
  let gen =
    QCheck.Gen.(
      let* m =
        frequency
          [ (3, int_range 1 12); (2, int_range 13 60); (3, int_range 61 64);
            (1, int_range 65 70);
          ]
      in
      let* shape = int_range 0 3 in
      let* max_entry = oneofl [ 1; 3; 9 ] in
      let* seed = int_range 0 1_000_000 in
      let st = Random.State.make [| seed |] in
      let d =
        match shape with
        | 0 ->
          (* a weighted permutation: the sparsest balanced support *)
          let perm = Array.init m Fun.id in
          for i = m - 1 downto 1 do
            let j = Random.State.int st (i + 1) in
            let x = perm.(i) in
            perm.(i) <- perm.(j);
            perm.(j) <- x
          done;
          let d = Mat.make m in
          Array.iteri
            (fun i j -> Mat.set d i j (1 + Random.State.int st max_entry))
            perm;
          d
        | 1 -> Mat.random ~density:(2.0 /. float_of_int m) ~max_entry st m
        | 2 -> Mat.random ~density:0.3 ~max_entry st m
        | _ -> Mat.random ~density:1.0 ~max_entry st m
      in
      return (Bvn.augment d))
  in
  QCheck.make ~print:Mat_helpers.to_string gen

let prop_bvn_matches_oracle =
  QCheck.Test.make ~name:"BvN kernel = list decomposition oracle" ~count:60
    bvn_oracle_arb (fun a ->
      List.map (fun (mt, q) -> (Bvn.pairs mt, q)) (Bvn.decompose a)
      = oracle_decompose a)

(* Words [f ()] allocates, on the minor and the major heap. *)
let allocated_words f =
  let before = Gc.allocated_bytes () in
  let r = f () in
  (r, (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8))

(* A matching costs O(m) words: its array, the schedule's cons and pair,
   and a matrix write per entry that leaves it — nothing per DFS step. *)
let test_bvn_allocation () =
  let m = 64 in
  let st = Random.State.make [| 64 |] in
  let a = Bvn.augment (Mat.random ~density:1.0 ~max_entry:100 st m) in
  let s, words = allocated_words (fun () -> Bvn.decompose a) in
  let per_matching = words /. float_of_int (Bvn.matchings_used s) in
  if per_matching > float_of_int (32 * m) then
    Alcotest.failf "%.0f words per matching over %d matchings, above 32 m = %d"
      per_matching (Bvn.matchings_used s) (32 * m)

(* ---------- LP relaxation ---------- *)

let test_interval_count () =
  let inst = fig1_instance () in
  (* T = 6 -> smallest L with 2^(L-1) >= 6 is 4 *)
  check_int "L" 4 (Lp_relax.interval_count inst);
  (* T = 2^61 + 1 -> 63: the grid's last point, 2^62, is past max_int *)
  let huge =
    Instance.make ~ports:2
      [ { Instance.id = 0;
          release = 0;
          weight = 1.0;
          demand = Mat.of_arrays [| [| 0; (1 lsl 61) + 1 |]; [| 0; 0 |] |];
        };
      ]
  in
  check_int "L past 2^61" 63 (Lp_relax.interval_count huge)

let test_interval_lp_single_coflow () =
  let inst = fig1_instance () in
  let r = Lp_relax.solve_interval inst in
  (* the single coflow has load 3, so it cannot finish before interval
     (2, 4]: cbar = tau_2 = 2 and the LP lower bound is w * 2 *)
  Alcotest.(check (float 1e-6)) "cbar" 2.0 r.Lp_relax.cbar.(0);
  Alcotest.(check (float 1e-6)) "bound" 2.0 r.Lp_relax.lower_bound

(* The dense tableau oracle solves the very model production solves
   (through [Lp_relax.relaxation]) and must reach its bound and order: on a
   random interval LP, the same LP warm-started from its own hints (a warm
   start changes pivots, never the optimum or the order), LP-EXP with a
   zero-demand coflow between busy ones (kept out of the model, so both
   solve the busy coflows' model and remap it back) and one of E11's finer
   grids.  The order is the LP's only where the optimum fixes every cbar:
   on 61 of 800 small random instances (4x5, 4x8, 3x3, 6x6, seeds 1-200)
   the oracle ends at another optimal vertex, same bound, other order.  So
   these instances are ones whose optimum fixes the order. *)
let test_interval_lp_dense_matches_revised () =
  let inst = random_instance 3 in
  let cold = Lp_relax.solve_interval inst in
  let warm =
    Lp_relax.solve_interval ~warm_start:(Option.get cold.Lp_relax.warm) inst
  in
  let with_empty =
    let busy = Instance.coflows (random_instance ~ports:3 ~coflows:4 5) in
    let empty = mk_coflow ~id:4 ~release:3 ~weight:2.0 (Mat.make 3) in
    Instance.make ~ports:3 [ busy.(0); busy.(1); empty; busy.(2); busy.(3) ]
  in
  let finer = random_instance ~ports:4 ~coflows:6 13 in
  List.iter
    (fun (label, formulation, inst, r) ->
      Lp_helpers.check_oracle label formulation inst r)
    [ ("interval", Lp_relax.Interval 2.0, inst, cold);
      ("warm-started", Lp_relax.Interval 2.0, inst, warm);
      ( "LP-EXP with an empty coflow",
        Lp_relax.Time_indexed,
        with_empty,
        Lp_relax.solve_time_indexed with_empty );
      ( "base 1.5",
        Lp_relax.Interval 1.5,
        finer,
        Lp_relax.solve_interval_base ~base:1.5 finer );
    ]

let test_time_indexed_at_least_interval () =
  (* LP-EXP is a tighter relaxation than (LP). *)
  let inst = random_instance ~ports:3 ~coflows:3 9 in
  let lp = Lp_relax.solve_interval inst in
  let exp = Lp_relax.solve_time_indexed inst in
  Alcotest.(check bool) "exp >= interval" true
    (exp.Lp_relax.lower_bound >= lp.Lp_relax.lower_bound -. 1e-6)

let test_time_indexed_guard () =
  let inst = random_instance ~ports:6 ~coflows:12 1 in
  (try
     ignore (Lp_relax.solve_time_indexed ~max_vars:10 inst);
     Alcotest.fail "expected Too_large"
   with Lp_relax.Too_large _ -> ())

let test_time_indexed_empty_coflow () =
  (* Regression (QCHECK_SEED=1 of the SG/Chen property): a zero-demand
     coflow released at slot 0 completes at C = 0, so LP-EXP must charge
     it w * r = 0, not one full slot — else the "lower bound" (17) beat a
     real schedule's TWCT (16). *)
  let busy = Mat.of_arrays [| [| 6; 0 |]; [| 0; 0 |] |] in
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 ~release:2 ~weight:2.0 busy;
        mk_coflow ~id:1 ~release:0 ~weight:1.0 (Mat.make 2);
      ]
  in
  let lp = Lp_relax.solve_time_indexed inst in
  let r = Shafiee.run inst in
  Alcotest.(check (float 0.0)) "TWCT" 16.0 r.Engine.twct;
  Alcotest.(check (float 1e-6)) "LP-EXP = w * (r + rho) + w * r" 16.0
    lp.Lp_relax.lower_bound;
  Alcotest.(check (float 0.0)) "empty coflow completes on arrival" 0.0
    lp.Lp_relax.cbar.(1);
  Alcotest.(check (array int)) "empty coflow first" [| 1; 0 |] lp.Lp_relax.order

let test_lp_budget_threaded_through_variants () =
  (* solve_interval_base and solve_time_indexed must forward the pivot and
     wall-clock budgets to the solver; a dropped argument shows up as a
     successful solve here *)
  let inst = random_instance ~ports:4 ~coflows:6 11 in
  let expect_failure expected f =
    try
      ignore (f ());
      Alcotest.fail ("expected " ^ expected)
    with Failure msg -> Alcotest.(check string) "diagnostic" expected msg
  in
  expect_failure "Lp_relax: solver returned iteration-limit" (fun () ->
      Lp_relax.solve_interval_base ~max_iterations:1 ~base:2.0 inst);
  expect_failure "Lp_relax: solver returned iteration-limit" (fun () ->
      Lp_relax.solve_time_indexed ~max_iterations:1 inst);
  expect_failure "Lp_relax: solver returned time-limit" (fun () ->
      Lp_relax.solve_interval_base ~deadline:0.0 ~base:2.0 inst);
  expect_failure "Lp_relax: solver returned time-limit" (fun () ->
      Lp_relax.solve_time_indexed ~deadline:0.0 inst)

let test_lp_warm_start_reuses_basis () =
  (* re-solving the same instance seeded with its own exported hints must
     reproduce the bound and skip (nearly) all simplex work *)
  let inst = random_instance ~ports:4 ~coflows:8 7 in
  let cold = Lp_relax.solve_interval inst in
  Alcotest.(check bool) "cold run pivots" true (cold.Lp_relax.iterations > 0);
  match cold.Lp_relax.warm with
  | None -> Alcotest.fail "optimal solve exported no warm hints"
  | Some hints ->
    let warm = Lp_relax.solve_interval ~warm_start:hints inst in
    Alcotest.(check (float 1e-6)) "same bound" cold.Lp_relax.lower_bound
      warm.Lp_relax.lower_bound;
    Alcotest.(check bool)
      (Printf.sprintf "warm pivots (%d) < cold pivots (%d)"
         warm.Lp_relax.iterations cold.Lp_relax.iterations)
      true
      (warm.Lp_relax.iterations < cold.Lp_relax.iterations)

let test_lp_warm_start_remapped_hints () =
  (* hints survive remapping across an index permutation and a time shift,
     and a stale map (dropping coflows) still yields a valid seed *)
  let inst = random_instance ~ports:4 ~coflows:8 23 in
  let cold = Lp_relax.solve_interval inst in
  let hints = Option.get cold.Lp_relax.warm in
  let shifted =
    Lp_relax.remap_hints ~time_shift:0.0
      (Lp_relax.remap_hints
         ~index_map:(fun k -> if k = 0 then None else Some k)
         hints)
  in
  let warm = Lp_relax.solve_interval ~warm_start:shifted inst in
  Alcotest.(check (float 1e-6)) "same bound under stale hints"
    cold.Lp_relax.lower_bound warm.Lp_relax.lower_bound

let test_lp_warm_start_colliding_hints_fall_back () =
  (* an epoch-crossing remap can collide (several old indices landing on
     one live coflow) or misalign times entirely; the resulting basis
     proposal is singular or infeasible, and the solver must silently fall
     back to the crash basis and reproduce the cold optimum *)
  let inst = random_instance ~ports:4 ~coflows:8 31 in
  let cold = Lp_relax.solve_interval inst in
  let hints = Option.get cold.Lp_relax.warm in
  let collided =
    Lp_relax.remap_hints ~index_map:(fun _ -> Some 0) hints
  in
  let a = Lp_relax.solve_interval ~warm_start:collided inst in
  Alcotest.(check (float 1e-6)) "collided hints: cold bound"
    cold.Lp_relax.lower_bound a.Lp_relax.lower_bound;
  let shifted_away =
    Lp_relax.remap_hints ~time_shift:1.0e9 hints
  in
  let b = Lp_relax.solve_interval ~warm_start:shifted_away inst in
  Alcotest.(check (float 1e-6)) "absurd time shift: cold bound"
    cold.Lp_relax.lower_bound b.Lp_relax.lower_bound

let test_lp_order_is_permutation () =
  let inst = random_instance 17 in
  let r = Lp_relax.solve_interval inst in
  Alcotest.(check bool) "permutation" true
    (Ordering.is_permutation (Instance.num_coflows inst) r.Lp_relax.order)

let test_lp_release_dates_respected () =
  (* a coflow released at 10 with load 2 cannot have cbar < 8: its first
     feasible interval (tau_(l-1), tau_l] must satisfy tau_l >= 12 *)
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 ~release:10 (fig1 ());
        mk_coflow ~id:1 (Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |]);
      ]
  in
  let r = Lp_relax.solve_interval inst in
  Alcotest.(check bool) "late coflow pushed out" true
    (r.Lp_relax.cbar.(0) >= 8.0 -. 1e-9);
  check_int "early coflow first" 1 r.Lp_relax.order.(0)

let lp_instance_arb =
  let gen =
    QCheck.Gen.(
      let* ports = int_range 2 5 in
      let* coflows = int_range 1 7 in
      let* seed = int_range 0 1_000_000 in
      return (random_instance ~ports ~coflows seed))
  in
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Instance.pp_summary i)
    gen

let prop_lp_lower_bounds_vload =
  (* LP optimum lower-bounds even the best possible prefix times: the last
     coflow in any order cannot finish before V_n / anything; weak but
     useful sanity: lower_bound <= sum w_k * T. *)
  QCheck.Test.make ~name:"LP bound is finite and nonnegative" ~count:60
    lp_instance_arb (fun inst ->
      let r = Lp_relax.solve_interval inst in
      r.Lp_relax.lower_bound >= -1e-9
      && r.Lp_relax.lower_bound < float_of_int (Instance.horizon inst)
         *. Array.fold_left ( +. ) 0.0 (Instance.weights inst)
         +. 1.0)

let prop_lp_cbar_at_least_load =
  (* cbar_k >= tau_(first allowed - 1) >= (r_k + rho_k) / 2 by the geometric
     grid — provided the coflow cannot fit in the very first interval
     (r + rho >= 2), where tau_0 = 0 carries no information. *)
  QCheck.Test.make ~name:"cbar respects per-coflow load" ~count:60
    lp_instance_arb (fun inst ->
      let r = Lp_relax.solve_interval inst in
      Array.for_all
        (fun c ->
          let k = c.Instance.id in
          let rho = Mat.load c.Instance.demand in
          c.Instance.release + rho < 2
          || r.Lp_relax.cbar.(k)
             >= (float_of_int (c.Instance.release + rho) /. 2.0) -. 1e-6)
        (Instance.coflows inst))

let test_lp_values_partition () =
  (* the reported non-zero assignments of each coflow must sum to 1 *)
  let inst = random_instance 19 in
  let r = Lp_relax.solve_interval inst in
  let sums = Array.make (Instance.num_coflows inst) 0.0 in
  List.iter (fun (k, _, x) -> sums.(k) <- sums.(k) +. x) r.Lp_relax.values;
  Array.iteri
    (fun k s ->
      if Mat.total (Instance.coflow inst k).Instance.demand > 0 then
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "coflow %d mass" k)
          1.0 s)
    sums

let test_lp_trivial_instances () =
  (* empty instance and all-zero demands short-circuit *)
  let empty = Instance.make ~ports:3 [] in
  let r = Lp_relax.solve_interval empty in
  Alcotest.(check (float 0.0)) "empty bound" 0.0 r.Lp_relax.lower_bound;
  let zero =
    Instance.make ~ports:2 [ mk_coflow (Mat.make 2) ]
  in
  let r = Lp_relax.solve_interval zero in
  Alcotest.(check (float 0.0)) "zero bound" 0.0 r.Lp_relax.lower_bound;
  Alcotest.(check int) "order" 1 (Array.length r.Lp_relax.order)

(* ---------- Orderings ---------- *)

let ordering_instance () =
  Instance.make ~ports:2
    [ mk_coflow ~id:0 ~weight:1.0 (Mat.of_arrays [| [| 4; 0 |]; [| 0; 4 |] |]);
      mk_coflow ~id:1 ~weight:4.0 (Mat.of_arrays [| [| 2; 0 |]; [| 0; 2 |] |]);
      mk_coflow ~id:2 ~weight:1.0 (Mat.of_arrays [| [| 1; 0 |]; [| 0; 1 |] |]);
    ]

let test_ordering_arrival () =
  Alcotest.(check (array int)) "trace order" [| 0; 1; 2 |]
    (Ordering.arrival (ordering_instance ()))

let test_ordering_by_load_weight () =
  (* rho/w: 4/1=4, 2/4=0.5, 1/1=1 -> order 1, 2, 0 *)
  Alcotest.(check (array int)) "H_rho" [| 1; 2; 0 |]
    (Ordering.by_load_over_weight (ordering_instance ()))

let test_ordering_by_total_size () =
  (* total/w: 8/1, 4/4, 2/1 -> order 1, 2, 0 *)
  Alcotest.(check (array int)) "size order" [| 1; 2; 0 |]
    (Ordering.by_total_size (ordering_instance ()))

let test_is_permutation () =
  Alcotest.(check bool) "yes" true (Ordering.is_permutation 3 [| 2; 0; 1 |]);
  Alcotest.(check bool) "repeat" false (Ordering.is_permutation 3 [| 2; 0; 0 |]);
  Alcotest.(check bool) "range" false (Ordering.is_permutation 3 [| 3; 0; 1 |]);
  Alcotest.(check bool) "short" false (Ordering.is_permutation 3 [| 0; 1 |])

(* ---------- Grouping ---------- *)

let test_grouping_singletons () =
  let g = Grouping.singletons [| 2; 0; 1 |] in
  check_int "three groups" 3 (Grouping.group_count g);
  Alcotest.(check (array int)) "flatten" [| 2; 0; 1 |] (Grouping.flatten g)

let test_grouping_deterministic_classes () =
  (* loads 1, 1, 2, 8 -> V = 1, 2, 4, 12 -> classes 1, 2, 3, 5:
     four singleton groups. *)
  let inst =
    Instance.make ~ports:1
      [ mk_coflow ~id:0 (Mat.of_arrays [| [| 1 |] |]);
        mk_coflow ~id:1 (Mat.of_arrays [| [| 1 |] |]);
        mk_coflow ~id:2 (Mat.of_arrays [| [| 2 |] |]);
        mk_coflow ~id:3 (Mat.of_arrays [| [| 8 |] |]);
      ]
  in
  let g = Grouping.deterministic inst [| 0; 1; 2; 3 |] in
  check_int "groups" 4 (Grouping.group_count g)

let test_grouping_deterministic_merges () =
  (* loads 1, 1, 1 -> V = 1, 2, 3: classes 1, 2, 3? V=1 -> class 1 (<=1),
     V=2 -> class 2 (<=2), V=3 -> class 3 (<=4).  Merge only within the
     same class; the fourth coflow with V=4 joins class 3. *)
  let inst =
    Instance.make ~ports:1
      (List.init 4 (fun id -> mk_coflow ~id (Mat.of_arrays [| [| 1 |] |])))
  in
  let g = Grouping.deterministic inst [| 0; 1; 2; 3 |] in
  check_int "last two merge" 3 (Grouping.group_count g);
  Alcotest.(check (array int)) "class (2,4]" [| 2; 3 |] (Grouping.members g 2)

let test_grouping_deterministic_huge_loads () =
  (* cumulative loads past 2^61: the class search used to double its cap
     past [max_int], wrap negative and never end.  V = 2^61, 2^61 + 1 and
     max_int fall in classes 62, 63 and 63. *)
  let coflow id units = mk_coflow ~id (Mat.of_arrays [| [| units |] |]) in
  let inst =
    Instance.make ~ports:1
      [ coflow 0 (1 lsl 61); coflow 1 1; coflow 2 ((1 lsl 61) - 2) ]
  in
  let g = Grouping.deterministic inst [| 0; 1; 2 |] in
  check_int "two classes" 2 (Grouping.group_count g);
  Alcotest.(check (array int))
    "the top class" [| 1; 2 |] (Grouping.members g 1);
  (* the drain time of a load of [max_int] at speed 2 rounds up, and does
     not wrap *)
  let inst = Instance.make ~ports:1 [ coflow 0 max_int; coflow 1 0 ] in
  let g = Grouping.deterministic ~speed:2 inst [| 1; 0 |] in
  check_int "zero class, then class 62" 2 (Grouping.group_count g)

let test_grouping_flatten_preserves_order () =
  let inst = random_instance 23 in
  let order = Ordering.by_load_over_weight inst in
  let g = Grouping.deterministic inst order in
  Alcotest.(check (array int)) "order preserved" order (Grouping.flatten g)

let test_randomized_grouping_valid () =
  let inst = random_instance 29 in
  let order = Ordering.arrival inst in
  let st = Random.State.make [| 4 |] in
  let t0 = Grouping.draw_t0 st in
  Alcotest.(check bool) "t0 in [1, a]" true
    (t0 >= 1.0 && t0 <= Grouping.golden_a);
  let g = Grouping.randomized ~a:Grouping.golden_a ~t0 inst order in
  Alcotest.(check (array int)) "flatten" order (Grouping.flatten g)

(* ---------- Scheduler ---------- *)

let test_single_coflow_meets_load_bound () =
  let inst = fig1_instance () in
  let r = Scheduler.run ~case:Scheduler.Base inst [| 0 |] in
  check_int "C = rho = 3" 3 r.Scheduler.completion.(0)

let test_all_cases_complete () =
  let inst = random_instance 31 in
  let order = Ordering.by_load_over_weight inst in
  List.iter
    (fun case ->
      let r = Scheduler.run ~case inst order in
      Alcotest.(check bool)
        (Printf.sprintf "case %s twct positive" (Scheduler.case_name case))
        true
        (r.Scheduler.twct >= 0.0))
    Scheduler.all_cases

let test_backfill_never_hurts_makespan_here () =
  let inst = random_instance 37 in
  let order = Ordering.by_load_over_weight inst in
  let base = Scheduler.run ~case:Scheduler.Base inst order in
  let bf = Scheduler.run ~case:Scheduler.Backfill inst order in
  Alcotest.(check bool) "backfill does not lengthen the schedule" true
    (bf.Scheduler.slots <= base.Scheduler.slots)

let test_sequential_base_case_is_sum_of_loads () =
  (* In case (a) with no releases, coflows are cleared one by one, so the
     k-th completion is the sum of the first k loads. *)
  let inst = ordering_instance () in
  let order = [| 0; 1; 2 |] in
  let r = Scheduler.run ~case:Scheduler.Base inst order in
  check_int "C_0 = 4" 4 r.Scheduler.completion.(0);
  check_int "C_1 = 6" 6 r.Scheduler.completion.(1);
  check_int "C_2 = 7" 7 r.Scheduler.completion.(2)

let test_grouped_respects_release_dates () =
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 ~release:5 (fig1 ());
        mk_coflow ~id:1 (Mat.of_arrays [| [| 2; 0 |]; [| 0; 0 |] |]);
      ]
  in
  let order = Ordering.by_load_over_weight inst in
  let r = Scheduler.run ~case:Scheduler.Group inst order in
  Alcotest.(check bool) "released coflow not served early" true
    (r.Scheduler.completion.(0) >= 5 + 3)

let test_policy_exposed () =
  let inst = fig1_instance () in
  let groups = Grouping.singletons [| 0 |] in
  let policy = Scheduler.as_policy ~describe:"singleton" groups in
  (* the prepared stepper still works for a hand-stepped simulator... *)
  let sim = Switchsim.Simulator.create ~ports:2 (Instance.demands inst) in
  let st = policy.Policy.prepare sim in
  Switchsim.Simulator.step sim (st.Policy.next_slot sim);
  Alcotest.(check bool) "one slot served" true
    (Switchsim.Simulator.units_moved sim > 0);
  (* ...and the policy runs to completion through the engine *)
  let r = Engine.run inst policy in
  check_int "done in 3" 3 r.Scheduler.completion.(0)

(* ---------- Theory audits ---------- *)

let sched_arb =
  let gen =
    QCheck.Gen.(
      let* ports = int_range 2 5 in
      let* coflows = int_range 1 6 in
      let* seed = int_range 0 1_000_000 in
      return (random_instance ~ports ~coflows seed))
  in
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Instance.pp_summary i)
    gen

let prop_lemma2_all_cases =
  QCheck.Test.make ~name:"Lemma 2 prefix bound on every case" ~count:60
    sched_arb (fun inst ->
      let order = Ordering.by_load_over_weight inst in
      List.for_all
        (fun case ->
          let r = Scheduler.run ~case inst order in
          Verify.lemma2_prefix_bound inst order r.Scheduler.completion = Ok ())
        Scheduler.all_cases)

let prop_lemma3_lp =
  QCheck.Test.make ~name:"Lemma 3: V <= 16/3 cbar" ~count:40 sched_arb
    (fun inst ->
      let lp = Lp_relax.solve_interval inst in
      Verify.lemma3_lp_bound inst lp = Ok ())

let prop_proposition1 =
  QCheck.Test.make ~name:"Proposition 1 on the grouped schedule" ~count:40
    sched_arb (fun inst ->
      let lp = Lp_relax.solve_interval inst in
      let order = Ordering.by_lp lp in
      List.for_all
        (fun case ->
          let r = Scheduler.run ~case inst order in
          Verify.proposition1_bound inst order r.Scheduler.completion = Ok ())
        [ Scheduler.Group; Scheduler.Group_backfill ])

let prop_theorem1_ratio =
  (* The proof chain gives C_k <= 4 V_k <= 4 max (4, 16/3 cbar_k) for zero
     releases, i.e. TWCT <= 64/3 * LP bound + 16 * sum of weights; the
     additive term covers coflows the LP finishes inside the very first
     interval (where cbar carries no information, cf. Verify.lemma3).  On
     instances whose coflows all have cbar >= 3 the additive term vanishes
     and the ratio test is the paper's 64/3. *)
  QCheck.Test.make ~name:"Theorem 1 bound vs LP lower bound (zero releases)"
    ~count:40 sched_arb (fun inst ->
      let lp = Lp_relax.solve_interval inst in
      let order = Ordering.by_lp lp in
      let r = Scheduler.run ~case:Scheduler.Group inst order in
      let weight_sum = Array.fold_left ( +. ) 0.0 (Instance.weights inst) in
      let bound =
        (Verify.deterministic_ratio_limit ~with_releases:false
        *. lp.Lp_relax.lower_bound)
        +. (16.0 *. weight_sum)
      in
      r.Scheduler.twct <= bound +. 1e-6)

let prop_randomized_draw_bound =
  (* per-draw guarantee behind Proposition 2 (zero releases, group-level) *)
  QCheck.Test.make ~name:"randomized draw satisfies its per-draw bound"
    ~count:40 sched_arb (fun inst ->
      let st = Random.State.make [| 3 |] in
      let order = Ordering.by_load_over_weight inst in
      let t0 = Grouping.draw_t0 st in
      let groups = Grouping.randomized ~a:Grouping.golden_a ~t0 inst order in
      let r = Scheduler.run_grouped inst groups in
      Verify.randomized_draw_bound ~a:Grouping.golden_a inst groups
        r.Scheduler.completion
      = Ok ())

let prop_aggressive_dominates_feasibility =
  (* the work-conserving ablation still completes, respects Lemma 2, and
     never produces a longer makespan than plain case (d) on these
     zero-release instances *)
  (* NB: aggressive service is not pointwise dominant — different service
     patterns can occasionally lengthen the makespan — so only soundness is
     asserted here; the TWCT win is measured by E9. *)
  QCheck.Test.make ~name:"work-conserving ablation is sound" ~count:40
    sched_arb (fun inst ->
      let order = Ordering.by_load_over_weight inst in
      let groups = Grouping.deterministic inst order in
      let wc =
        Scheduler.run_grouped ~backfill:true ~aggressive:true inst groups
      in
      Array.for_all (fun c -> c >= 0) wc.Scheduler.completion
      && Verify.lemma2_prefix_bound inst order wc.Scheduler.completion = Ok ())

let test_aggressive_work_conserving_invariant () =
  (* under the aggressive policy, no slot may leave a servable
     (free ingress, free egress, positive released demand) pair idle *)
  let inst = random_instance ~ports:4 ~coflows:6 53 in
  let order = Ordering.by_load_over_weight inst in
  let groups = Grouping.deterministic inst order in
  let state = Scheduler.make_state groups in
  let policy = Scheduler.next_slot state ~backfill:true ~aggressive:true in
  let sim =
    Switchsim.Simulator.create ~ports:4 (Instance.demands inst)
  in
  let n = Instance.num_coflows inst in
  let slots = ref 0 in
  while (not (Switchsim.Simulator.all_complete sim)) && !slots < 10_000 do
    incr slots;
    let transfers = policy sim in
    let src = Array.make 4 false and dst = Array.make 4 false in
    List.iter
      (fun t ->
        src.(t.Switchsim.Simulator.src) <- true;
        dst.(t.Switchsim.Simulator.dst) <- true)
      transfers;
    for i = 0 to 3 do
      for j = 0 to 3 do
        if not (src.(i) || dst.(j)) then
          for k = 0 to n - 1 do
            if
              Switchsim.Simulator.released sim k
              && Switchsim.Simulator.remaining_at sim k i j > 0
            then
              Alcotest.fail
                (Printf.sprintf
                   "idle servable pair (%d, %d) for coflow %d at slot %d" i j
                   k !slots)
          done
      done
    done;
    Switchsim.Simulator.step sim transfers
  done;
  Alcotest.(check bool) "completed" true (Switchsim.Simulator.all_complete sim)

let prop_randomized_completes =
  QCheck.Test.make ~name:"randomized algorithm completes and bounds hold"
    ~count:40 sched_arb (fun inst ->
      let st = Random.State.make [| 99 |] in
      let order = Ordering.by_load_over_weight inst in
      let r = Randomized.run st inst order in
      Verify.lemma2_prefix_bound inst order r.Scheduler.completion = Ok ())

(* ---------- Baselines ---------- *)

let test_baselines_complete () =
  let inst = random_instance 41 in
  let fifo = Baselines.fifo inst in
  let rr = Baselines.round_robin inst in
  let greedy = Baselines.greedy inst (Ordering.by_load_over_weight inst) in
  List.iter
    (fun (name, r) ->
      Alcotest.(check bool) name true (r.Scheduler.twct > 0.0))
    [ ("fifo", fifo); ("round-robin", rr); ("greedy", greedy) ]

let prop_baselines_lemma2 =
  QCheck.Test.make ~name:"baselines respect Lemma 2" ~count:40 sched_arb
    (fun inst ->
      let order = Ordering.arrival inst in
      let r = Baselines.fifo inst in
      Verify.lemma2_prefix_bound inst order r.Scheduler.completion = Ok ())

(* ---------- Primal-dual ordering ---------- *)

let test_primal_dual_single_port_is_wspt () =
  (* With 1x1 demand matrices the rule degenerates to Smith's rule. *)
  let inst =
    Instance.make ~ports:1
      [ mk_coflow ~id:0 ~weight:1.0 (Mat.of_arrays [| [| 4 |] |]);
        mk_coflow ~id:1 ~weight:4.0 (Mat.of_arrays [| [| 2 |] |]);
        mk_coflow ~id:2 ~weight:1.0 (Mat.of_arrays [| [| 1 |] |]);
      ]
  in
  Alcotest.(check (array int)) "WSPT order" [| 1; 2; 0 |]
    (Primal_dual.order inst)

let prop_primal_dual_permutation =
  QCheck.Test.make ~name:"primal-dual order is a permutation" ~count:100
    sched_arb (fun inst ->
      Ordering.is_permutation (Instance.num_coflows inst)
        (Primal_dual.order inst))

let prop_primal_dual_duals_nonneg =
  QCheck.Test.make ~name:"primal-dual residual weights stay non-negative"
    ~count:100 sched_arb (fun inst ->
      let _, residuals = Primal_dual.order_with_duals inst in
      Array.for_all (fun r -> r >= -1e-9) residuals)

let prop_primal_dual_schedules_sound =
  QCheck.Test.make ~name:"primal-dual order yields sound grouped schedules"
    ~count:40 sched_arb (fun inst ->
      let order = Primal_dual.order inst in
      let r = Scheduler.run ~case:Scheduler.Group_backfill inst order in
      Verify.lemma2_prefix_bound inst order r.Scheduler.completion = Ok ())

(* The backward charging orders promise a listing-order-independent result:
   the tie-break uses residual weights and trace ids only (see
   Primal_dual.mli), so two calls on the same instance with the coflow list
   permuted must schedule the same trace ids in the same sequence. *)

let ids_in_order inst order =
  Array.map (fun k -> (Instance.coflow inst k).Instance.id) order

let reversed_instance inst =
  Instance.make ~ports:(Instance.ports inst)
    (List.rev (Array.to_list (Instance.coflows inst)))

let test_primal_dual_zero_load_fallback () =
  (* all-empty demands: every charge ratio is infinite, so the documented
     fallback decides alone — ascending residual (= original) weight from
     the back of the permutation, the larger trace id placed later on
     ties *)
  let empty = Mat.make 2 in
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 ~weight:1.0 empty;
        mk_coflow ~id:1 ~weight:3.0 empty;
        mk_coflow ~id:2 ~weight:2.0 empty;
        mk_coflow ~id:3 ~weight:3.0 empty;
      ]
  in
  Alcotest.(check (array int)) "fallback order" [| 1; 3; 2; 0 |]
    (Primal_dual.order inst)

let test_primal_dual_ties_permutation_invariant () =
  (* exact ratio ties plus zero-load coflows — the regression shape: the
     old working-index tie-break let the listing order leak through *)
  let d = Mat.of_arrays [| [| 2; 0 |]; [| 0; 0 |] |] in
  let empty = Mat.make 2 in
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 ~weight:1.0 d;
        mk_coflow ~id:1 ~weight:1.0 d;
        mk_coflow ~id:2 ~weight:1.0 empty;
        mk_coflow ~id:3 ~weight:1.0 empty;
      ]
  in
  let rev = reversed_instance inst in
  Alcotest.(check (array int)) "same id sequence"
    (ids_in_order inst (Primal_dual.order inst))
    (ids_in_order rev (Primal_dual.order rev))

let prop_backward_orders_permutation_invariant =
  (* uniform weights make residual ties common, exercising the id rule *)
  QCheck.Test.make
    ~name:"backward orders invariant under coflow-list permutation"
    ~count:60 sched_arb (fun inst ->
      let rev = reversed_instance inst in
      List.for_all
        (fun order_of ->
          ids_in_order inst (order_of inst) = ids_in_order rev (order_of rev))
        [ Primal_dual.order; Shafiee.order; Chen.order ])

let prop_shafiee_reduces_without_releases =
  (* with all releases zero the release case never fires, so the
     Shafiee–Ghaderi order coincides with the primal-dual one and the
     factor drops to the release-free 4 *)
  QCheck.Test.make
    ~name:"Shafiee-Ghaderi = primal-dual at zero releases" ~count:60
    sched_arb (fun inst ->
      Shafiee.order inst = Primal_dual.order inst
      && Shafiee.guarantee_for inst = Shafiee.guarantee ~with_releases:false)

(* Satellite: every new ordering-based policy must be audit-clean and stay
   within its proven factor of the LP-EXP lower bound — checked on random
   instances with non-trivial releases and weights, so the release-aware
   branch and the 5 / 4.36 constants are both exercised. *)

let arena_arb =
  let gen =
    QCheck.Gen.(
      let* ports = int_range 2 4 in
      let* coflows = int_range 1 5 in
      let* seed = int_range 0 1_000_000 in
      let* salt = int_range 0 1_000_000 in
      let base = random_instance ~ports ~coflows seed in
      let st = Random.State.make [| salt; 0xE19 |] in
      let cs =
        List.map
          (fun c ->
            { c with
              Instance.release = Random.State.int st 7;
              weight = float_of_int (1 + Random.State.int st 4);
            })
          (Array.to_list (Instance.coflows base))
      in
      return (Instance.make ~ports cs))
  in
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Instance.pp_summary i)
    gen

let prop_arena_policies_within_guarantee =
  QCheck.Test.make
    ~name:"SG and Chen: audit-clean, between LP-EXP and factor x LP-EXP"
    ~count:30 arena_arb (fun inst ->
      let lp = Lp_relax.solve_time_indexed ~max_vars:200_000 inst in
      let bound = lp.Lp_relax.lower_bound in
      List.for_all
        (fun (order, r, factor) ->
          Ordering.is_permutation (Instance.num_coflows inst) order
          && Verify.lemma2_prefix_bound inst order r.Engine.completion
             = Ok ()
          && r.Engine.twct +. 1e-6 >= bound
          && (bound <= 0.0 || r.Engine.twct <= (factor *. bound) +. 1e-6))
        [ (Shafiee.order inst, Shafiee.run inst, Shafiee.guarantee_for inst);
          (Chen.order inst, Chen.run inst, Chen.guarantee_for inst);
        ])

(* On one fabric at rate 1 the heterogeneous variant charges against the
   same loads, so its order and duals are Chen's, bit for bit; the
   instances carry release dates, so the release branch is exercised. *)
let prop_chen_hetero_single_is_chen =
  QCheck.Test.make ~name:"Chen_hetero on Net.single = Chen, bit for bit"
    ~count:100 arena_arb (fun inst ->
      let order, duals = Chen.order_with_duals inst in
      let order', duals' =
        Chen_hetero.order_with_duals
          ~net:(Switchsim.Net.single ~ports:(Instance.ports inst))
          inst
      in
      order = order'
      && Array.for_all2
           (fun a b ->
             Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
           duals duals')

(* ---------- SEBF + MADD baseline ---------- *)

let prop_sebf_madd_sound =
  QCheck.Test.make ~name:"SEBF+MADD completes with a feasible schedule"
    ~count:40 sched_arb (fun inst ->
      let r = Baselines.sebf_madd inst in
      Array.for_all (fun c -> c >= 0) r.Scheduler.completion
      && r.Scheduler.slots >= 0)

let test_sebf_madd_single_coflow_optimal () =
  (* alone, MADD must clear a coflow in exactly rho slots *)
  let inst = fig1_instance () in
  let r = Baselines.sebf_madd inst in
  check_int "rho slots" 3 r.Scheduler.completion.(0)

(* ---------- Online rules ---------- *)

let prop_online_rules_sound =
  QCheck.Test.make ~name:"online rules complete with sound schedules"
    ~count:30 sched_arb (fun inst ->
      List.for_all
        (fun rule ->
          let r = Online.run rule inst in
          Array.for_all (fun c -> c >= 0) r.Scheduler.completion)
        Online.all_rules)

let test_online_respects_releases () =
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 ~release:7 (Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |]) ]
  in
  let r = Online.run Online.Weighted_bottleneck inst in
  Alcotest.(check bool) "not before release + 1" true
    (r.Scheduler.completion.(0) >= 8)

let test_online_work_conserving () =
  (* single always-available coflow: online rules finish in rho slots *)
  let inst = fig1_instance () in
  List.iter
    (fun rule ->
      let r = Online.run rule inst in
      check_int (Online.rule_name rule) 3 r.Scheduler.completion.(0))
    Online.all_rules

(* ---------- Decentralized ---------- *)

let prop_decentralized_sound =
  QCheck.Test.make ~name:"decentralized schedulers complete" ~count:30
    sched_arb (fun inst ->
      List.for_all
        (fun rule ->
          let r = Decentralized.run rule inst in
          Array.for_all (fun c -> c >= 0) r.Scheduler.completion)
        Decentralized.all_rules)

let test_decentralized_single_coflow () =
  (* one coflow: local SEBF must still finish in at most total-units slots
     and at least rho slots *)
  let inst = fig1_instance () in
  let r = Decentralized.run Decentralized.Local_sebf inst in
  Alcotest.(check bool) "between rho and total" true
    (r.Scheduler.completion.(0) >= 3 && r.Scheduler.completion.(0) <= 6)

let test_decentralized_rounds_validation () =
  (try
     ignore (Decentralized.run ~rounds:0 Decentralized.Local_fifo (fig1_instance ()));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_decentralized_more_rounds_no_worse_makespan () =
  (* more arbitration rounds can only add matched pairs per slot *)
  let inst = random_instance ~ports:5 ~coflows:6 71 in
  let r1 = Decentralized.run ~rounds:1 Decentralized.Local_sebf inst in
  let r5 = Decentralized.run ~rounds:5 Decentralized.Local_sebf inst in
  Alcotest.(check bool) "r5 completes" true (r5.Scheduler.slots > 0);
  Alcotest.(check bool) "r1 completes" true (r1.Scheduler.slots > 0)

(* ---------- DAG scheduling ---------- *)

let test_dag_scheduler_diamond () =
  let d v = Mat.of_arrays [| [| v; 0 |]; [| 0; v |] |] in
  let dag =
    Dag.make ~ports:2
      [ { Dag.id = 0; weight = 1.0; demand = d 1; deps = [] };
        { Dag.id = 1; weight = 1.0; demand = d 2; deps = [ 0 ] };
        { Dag.id = 2; weight = 1.0; demand = d 3; deps = [ 0 ] };
        { Dag.id = 3; weight = 1.0; demand = d 1; deps = [ 1; 2 ] };
      ]
  in
  List.iter
    (fun prio ->
      let r = Dag_scheduler.run prio dag in
      let c = r.Dag_scheduler.stage_completion in
      (* precedence respected: a stage finishes strictly after deps (its
         earliest start is its deps' completion) *)
      Alcotest.(check bool)
        (Dag_scheduler.priority_name prio ^ " precedence")
        true
        (c.(1) > c.(0) && c.(2) > c.(0) && c.(3) > max c.(1) c.(2));
      (* stages 1 and 2 contend for the same diagonal pairs, so any
         work-conserving policy needs 1 + (2 + 3) + 1 = 7 slots *)
      Alcotest.(check int)
        (Dag_scheduler.priority_name prio ^ " makespan")
        7 r.Dag_scheduler.makespan)
    Dag_scheduler.all_priorities

let prop_dag_scheduler_sound =
  let gen =
    QCheck.Gen.(
      let* ports = int_range 2 5 in
      let* jobs = int_range 1 4 in
      let* seed = int_range 0 1_000_000 in
      let st = Random.State.make [| seed |] in
      return (Dag.random ~stages_per_job:3 ~jobs ~max_flow_size:3 ~ports st))
  in
  QCheck.Test.make ~name:"DAG schedules respect precedence" ~count:40
    (QCheck.make
       ~print:(fun d -> Printf.sprintf "dag with %d stages" (Dag.num_stages d))
       gen)
    (fun dag ->
      List.for_all
        (fun prio ->
          let r = Dag_scheduler.run prio dag in
          let c = r.Dag_scheduler.stage_completion in
          let ok = ref true in
          for k = 0 to Dag.num_stages dag - 1 do
            List.iter
              (fun dep ->
                let nonempty =
                  Matrix.Mat.total (Dag.stage dag k).Dag.demand > 0
                in
                if nonempty && c.(k) <= c.(dep) then ok := false)
              (Dag.deps_of dag k)
          done;
          !ok)
        Dag_scheduler.all_priorities)

(* One MD5 over 360 seeded DAG runs: ports 2 to 70 (70 crosses the
   62-bit word boundary), twenty seeds each, every priority, random stage
   weights.  Each run adds its stage completions, makespan and the bits
   of its stage TWCT, so a changed decision or completion shows here. *)
let test_dag_digest () =
  let b = Buffer.create 65536 in
  List.iter
    (fun ports ->
      for seed = 0 to 19 do
        let st = Random.State.make [| ports; seed; 0xDA6 |] in
        let dag = Dag.random ~jobs:3 ~ports st in
        let dag =
          Dag.make ~ports
            (List.init (Dag.num_stages dag) (fun k ->
                 { (Dag.stage dag k) with
                   Dag.weight = float_of_int (1 + Random.State.int st 4)
                 }))
        in
        List.iter
          (fun prio ->
            let r = Dag_scheduler.run prio dag in
            Array.iter
              (fun c -> Buffer.add_string b (Printf.sprintf "%d," c))
              r.Dag_scheduler.stage_completion;
            Buffer.add_string b
              (Printf.sprintf "|%d|%Ld\n" r.Dag_scheduler.makespan
                 (Int64.bits_of_float r.Dag_scheduler.stage_twct)))
          Dag_scheduler.all_priorities
      done)
    [ 2; 3; 8; 12; 24; 70 ];
  Alcotest.(check string)
    "digest of 360 runs" "c566c77221a968e7fd50598f48720d1e"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---------- Metrics ---------- *)

let test_metrics () =
  let completion = [| 3; 10; 7 |] in
  let weights = [| 1.0; 2.0; 1.0 |] in
  let releases = [| 0; 4; 7 |] in
  Alcotest.(check (float 1e-9)) "twct" 30.0
    (Metrics.total_weighted_completion ~weights completion);
  Alcotest.(check (float 1e-9)) "twft" (3.0 +. 12.0 +. 0.0)
    (Metrics.total_weighted_flow ~weights ~releases completion);
  Alcotest.(check (float 1e-9)) "mean" (20.0 /. 3.0) (Metrics.mean completion);
  check_int "p0" 3 (Metrics.percentile 0.0 completion);
  check_int "p50" 7 (Metrics.percentile 0.5 completion);
  check_int "p100" 10 (Metrics.percentile 1.0 completion);
  check_int "makespan" 10 (Metrics.max_completion completion)

let test_percentile_int_order () =
  (* sorting must use the integer order on a larger unsorted vector — the
     whole point of the monomorphic [Int.compare] — and stay consistent
     across repeated calls (the input is copied, never mutated) *)
  let cs = [| 907; 3; 512; 88; 3; 1024; 700; 41; 256; 9 |] in
  let snapshot = Array.copy cs in
  check_int "p0 = min" 3 (Metrics.percentile 0.0 cs);
  check_int "p100 = max" 1024 (Metrics.percentile 1.0 cs);
  (* nearest-rank: rank ceil(0.5 * 10) = 5 of sorted [3;3;9;41;88;...] *)
  check_int "p50" 88 (Metrics.percentile 0.5 cs);
  check_int "p90" 907 (Metrics.percentile 0.9 cs);
  Alcotest.(check (array int)) "input untouched" snapshot cs

let test_percentile_matches_histogram () =
  (* [Metrics.percentile] and [Obs.Histogram.percentile] implement the same
     nearest-rank convention; on values below 32 (exact histogram buckets)
     they must agree on every p — so a percentile printed by a report and
     one exported in a profile artifact are directly comparable *)
  let fixture = [| 9; 1; 5; 3; 7; 2; 8; 31; 0; 4; 17; 17; 30 |] in
  Obs.Histogram.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Histogram.set_enabled false;
      Obs.Histogram.reset_all ())
    (fun () ->
      let h = Obs.Histogram.make "test.metrics.crosscheck" in
      Array.iter (Obs.Histogram.observe h) fixture;
      List.iter
        (fun p ->
          check_int
            (Printf.sprintf "p = %.2f agrees" p)
            (Metrics.percentile p fixture)
            (Obs.Histogram.percentile h p))
        [ 0.0; 0.01; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1.0 ])

let test_metrics_validation () =
  (try
     ignore
       (Metrics.total_weighted_flow ~weights:[| 1.0 |] ~releases:[| 5 |]
          [| 3 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (try
     ignore (Metrics.percentile 1.5 [| 1 |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (* regression: [max_completion [||]] used to silently answer 0, hiding
     empty-instance bugs from callers that treat the makespan as a slot
     count; it must refuse like its siblings *)
  (try
     ignore (Metrics.max_completion [||]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_metrics_empty_errors_name_context () =
  (* the [?what] channel: an empty completion set raised from a report
     over a dozen algorithms must say whose it was *)
  let expect label want f =
    try
      ignore (f ());
      Alcotest.fail (label ^ ": expected Invalid_argument")
    with Invalid_argument msg -> Alcotest.(check string) label want msg
  in
  expect "mean" "Metrics.mean: empty (SG on E19 small leg)" (fun () ->
      Metrics.mean ~what:"SG on E19 small leg" [||]);
  expect "percentile" "Metrics.percentile: empty (Chen on E19 scale leg)"
    (fun () -> Metrics.percentile ~what:"Chen on E19 scale leg" 0.95 [||]);
  expect "max_completion" "Metrics.max_completion: empty (H_rho)" (fun () ->
      Metrics.max_completion ~what:"H_rho" [||]);
  (* without [what] the historical message is unchanged *)
  expect "bare mean" "Metrics.mean: empty" (fun () -> Metrics.mean [||])

(* ---------- generalized interval grids ---------- *)

let test_interval_base_two_matches_default () =
  let inst = random_instance 61 in
  let a = Lp_relax.solve_interval inst in
  let b = Lp_relax.solve_interval_base ~base:2.0 inst in
  Alcotest.(check (float 1e-5)) "same bound" a.Lp_relax.lower_bound
    b.Lp_relax.lower_bound

let test_interval_base_invalid () =
  (try
     ignore (Lp_relax.solve_interval_base ~base:1.0 (fig1_instance ()));
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let prop_tighter_grid_tighter_bound =
  (* monotonicity is guaranteed for nested grids; sqrt 2 / 2 / 4 produce
     exactly nested integer points (ceil (sqrt 2 ^ 2k) = 2^k) *)
  QCheck.Test.make ~name:"finer (nested) interval grids certify larger bounds"
    ~count:30 sched_arb (fun inst ->
      let bound base =
        (Lp_relax.solve_interval_base ~base inst).Lp_relax.lower_bound
      in
      let bs2 = bound (sqrt 2.0) and b2 = bound 2.0 and b4 = bound 4.0 in
      bs2 >= b2 -. 1e-6 && b2 >= b4 -. 1e-6)

(* ---------- Brute force & exactness ---------- *)

let tiny_arb =
  let gen =
    QCheck.Gen.(
      let* ports = int_range 2 3 in
      let* coflows = int_range 1 3 in
      let* seed = int_range 0 1_000_000 in
      let st = Random.State.make [| seed |] in
      return
        (Synthetic.uniform ~ports ~coflows ~density:0.3 ~max_size:2 st))
  in
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Instance.pp_summary i)
    gen

let prop_brute_below_heuristics =
  QCheck.Test.make ~name:"exact optimum below every heuristic" ~count:25
    tiny_arb (fun inst ->
      QCheck.assume (Instance.total_units inst <= 12);
      let opt = Brute.optimal_twct inst in
      let order = Ordering.by_load_over_weight inst in
      List.for_all
        (fun case ->
          (Scheduler.run ~case inst order).Scheduler.twct >= opt -. 1e-9)
        Scheduler.all_cases
      && (Baselines.fifo inst).Scheduler.twct >= opt -. 1e-9)

let prop_brute_above_lp =
  QCheck.Test.make ~name:"LP lower bound below exact optimum" ~count:25
    tiny_arb (fun inst ->
      QCheck.assume (Instance.total_units inst <= 12);
      let opt = Brute.optimal_twct inst in
      let lp = Lp_relax.solve_interval inst in
      lp.Lp_relax.lower_bound <= opt +. 1e-6)

let test_brute_fig1 () =
  Alcotest.(check (float 1e-9)) "single coflow optimum = rho" 3.0
    (Brute.optimal_twct (fig1_instance ()))

let test_brute_rejects_large () =
  let inst = random_instance ~ports:6 ~coflows:6 43 in
  (try
     ignore (Brute.optimal_twct inst);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* ---------- Proposition 1 with release dates (reproduction finding) ----- *)

(* Deterministic witness that the paper's literal Proposition 1 fails with
   release dates: coflow A (load 3, release 0) and coflow B (load 1,
   release 100) land in the same V-class (2, 4], so Algorithm 2 holds A
   back until B arrives — C_A = 103 while the claimed bound is 12.  The
   corrected group-level bound holds. *)
let prop1_gap_instance () =
  Instance.make ~ports:2
    [ mk_coflow ~id:0 (Mat.of_arrays [| [| 3; 0 |]; [| 0; 0 |] |]);
      { Instance.id = 1;
        release = 100;
        weight = 1.0;
        demand = Mat.of_arrays [| [| 0; 0 |]; [| 0; 1 |] |];
      };
    ]

let test_prop1_literal_fails_with_releases () =
  let inst = prop1_gap_instance () in
  let order = [| 0; 1 |] in
  let groups = Grouping.deterministic inst order in
  check_int "one merged group" 1 (Grouping.group_count groups);
  let r = Scheduler.run ~case:Scheduler.Group inst order in
  Alcotest.(check bool) "coflow A delayed past its literal bound" true
    (r.Scheduler.completion.(0) > 0 + (4 * 3));
  (match Verify.proposition1_bound inst order r.Scheduler.completion with
  | Ok () -> Alcotest.fail "expected the literal Proposition 1 to fail"
  | Error _ -> ());
  match Verify.proposition1_grouped_bound inst groups r.Scheduler.completion with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("group-level bound must hold: " ^ m)

let prop_prop1_grouped_with_releases =
  let gen =
    QCheck.Gen.(
      let* ports = int_range 2 5 in
      let* coflows = int_range 2 8 in
      let* gap = int_range 1 20 in
      let* seed = int_range 0 1_000_000 in
      let st = Random.State.make [| seed |] in
      return
        (Fb_like.generate_with_arrivals ~mean_gap:gap ~ports ~coflows st))
  in
  QCheck.Test.make
    ~name:"group-level Proposition 1 holds with arbitrary releases" ~count:40
    (QCheck.make
       ~print:(fun i -> Format.asprintf "%a" Instance.pp_summary i)
       gen)
    (fun inst ->
      let lp = Lp_relax.solve_interval inst in
      let order = Ordering.by_lp lp in
      let groups = Grouping.deterministic inst order in
      let r = Scheduler.run ~case:Scheduler.Group inst order in
      Verify.proposition1_grouped_bound inst groups r.Scheduler.completion
      = Ok ())

let prop_grouped_schedule_replays =
  (* record the paper's grouped schedule, replay the CSV log on a fresh
     simulator, and require identical completion times — the full
     record/export/verify loop over the real algorithm *)
  QCheck.Test.make ~name:"grouped schedules survive record/replay" ~count:30
    sched_arb (fun inst ->
      let order = Ordering.by_load_over_weight inst in
      let demands = Instance.demands inst in
      let sim =
        Switchsim.Simulator.create ~ports:(Instance.ports inst) demands
      in
      let log = Switchsim.Recorder.log ~ports:(Instance.ports inst) in
      let (_ : Engine.result) =
        Engine.run ~sim inst
          (Policy.recorded log
             (Scheduler.case_policy ~case:Scheduler.Group_backfill inst order))
      in
      let recording' =
        Switchsim.Recorder.of_csv
          (Switchsim.Recorder.to_csv (Switchsim.Recorder.contents log))
      in
      let sim' = Switchsim.Recorder.replay recording' demands in
      let n = Instance.num_coflows inst in
      let same = ref true in
      for k = 0 to n - 1 do
        if
          Switchsim.Simulator.completion_time_exn sim k
          <> Switchsim.Simulator.completion_time_exn sim' k
        then same := false
      done;
      !same)

(* ---------- additional scheduler edges ---------- *)

let test_scheduler_matchings_counted () =
  let inst = random_instance 73 in
  let order = Ordering.by_load_over_weight inst in
  let r = Scheduler.run ~case:Scheduler.Group inst order in
  Alcotest.(check bool) "some matchings were built" true
    (r.Scheduler.matchings > 0);
  (* at most m^2 matchings per group, and at most n groups *)
  let m = Instance.ports inst and n = Instance.num_coflows inst in
  Alcotest.(check bool) "polynomially many matchings" true
    (r.Scheduler.matchings <= n * m * m)

let test_scheduler_empty_instance () =
  let inst = Instance.make ~ports:2 [] in
  let r = Scheduler.run inst [||] in
  Alcotest.(check int) "no slots" 0 r.Scheduler.slots;
  Alcotest.(check (float 0.0)) "zero twct" 0.0 r.Scheduler.twct

let test_scheduler_zero_demand_coflow () =
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 (Mat.make 2); mk_coflow ~id:1 (fig1 ()) ]
  in
  let order = Ordering.by_load_over_weight inst in
  let r = Scheduler.run ~case:Scheduler.Group_backfill inst order in
  Alcotest.(check int) "empty coflow completes at 0" 0
    r.Scheduler.completion.(0);
  Alcotest.(check int) "real coflow meets rho" 3 r.Scheduler.completion.(1)

let test_zero_demand_coflow_completes_on_arrival () =
  (* regression: an empty-demand coflow released at slot 6 used to report
     completion 0 — below its own arrival — which made engine TWCT
     incomparable with release-aware lower bounds (LP-EXP charges it
     w * 6).  The engine clamps completion to the release. *)
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 ~release:6 (Mat.make 2);
        mk_coflow ~id:1 (fig1 ());
      ]
  in
  let r = Scheduler.run ~case:Scheduler.Backfill inst [| 1; 0 |] in
  Alcotest.(check int) "completes on arrival" 6 r.Scheduler.completion.(0);
  Alcotest.(check (float 1e-9)) "twct counts the arrival" (6.0 +. 3.0)
    r.Scheduler.twct

let test_grouping_empty_order () =
  let inst = Instance.make ~ports:2 [] in
  Alcotest.(check int) "no groups" 0
    (Grouping.group_count (Grouping.deterministic inst [||]))

(* regression: a grouping that does not cover every coflow used to make
   next_slot answer [] forever once its groups were done — the simulator
   idled until the slot budget tripped.  The scheduler must fall through to
   greedy service of the leftovers instead. *)
let test_scheduler_non_covering_grouping_completes () =
  let inst =
    Instance.make ~ports:2
      [ mk_coflow ~id:0 (Mat.of_arrays [| [| 2; 0 |]; [| 0; 0 |] |]);
        mk_coflow ~id:1 (Mat.of_arrays [| [| 0; 0 |]; [| 0; 3 |] |]);
      ]
  in
  (* only coflow 0 is grouped; coflow 1 belongs to no group and no suffix *)
  let r = Scheduler.run_grouped inst [| [| 0 |] |] in
  check_int "grouped coflow served" 2 r.Scheduler.completion.(0);
  Alcotest.(check bool) "leftover coflow still completes" true
    (r.Scheduler.completion.(1) > 0);
  Alcotest.(check bool) "no idle spin" true (r.Scheduler.slots <= 5)

(* regression (white-box): the active group's demand has vanished — here
   because its only member carries an all-zero matrix, the closest state to
   a demand-dropping fault layer that the simulator's invariants let a test
   build directly.  next_slot used to answer [] in this state even though
   another coflow, outside every group, still had demand: every subsequent
   slot rebuilt the same empty state and idled.  It must advance and serve
   the leftover instead. *)
let test_scheduler_vanished_group_demand_advances () =
  let sim =
    Switchsim.Simulator.create ~ports:2
      [ (0, Mat.make 2); (0, Mat.of_arrays [| [| 1; 0 |]; [| 0; 0 |] |]) ]
  in
  let state = Scheduler.make_state [| [| 0 |] |] in
  let transfers = Scheduler.next_slot state ~backfill:false sim in
  Alcotest.(check bool) "serves the leftover coflow" true
    (List.exists (fun t -> t.Switchsim.Simulator.coflow = 1) transfers);
  Switchsim.Simulator.step sim transfers;
  Alcotest.(check bool) "progress, not a spin" true
    (Switchsim.Simulator.all_complete sim)

(* The flat schedule order: O(n) words for any grouping, where copying
   every suffix cost n (n - 1) / 2 for singleton groupings. *)
let test_make_state_linear () =
  let n = 20_000 in
  let groups = Grouping.singletons (Array.init n Fun.id) in
  let state, words = allocated_words (fun () -> Scheduler.make_state groups) in
  check_int "flat order" n (Array.length state.Scheduler.order);
  if words > float_of_int ((4 * n) + 64) then
    Alcotest.failf "make_state on %d singletons allocated %.0f words, over %d"
      n words ((4 * n) + 64)

(* Goldens for paths no other golden reaches, captured before the BvN
   kernel and the matching replay were rewritten: TWCT, slots, matchings
   and a digest of the completion vector. *)
let golden_digest completion =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map string_of_int completion))))

let check_golden name ~twct ~slots ~matchings ~digest (r : Scheduler.result) =
  Alcotest.(check (float 0.0)) (name ^ " twct") twct r.Scheduler.twct;
  check_int (name ^ " slots") slots r.Scheduler.slots;
  check_int (name ^ " matchings") matchings r.Scheduler.matchings;
  Alcotest.(check string) (name ^ " completions") digest
    (golden_digest r.Scheduler.completion)

let golden_fb ?(gap = 0) ~ports ~coflows seed =
  let st = Random.State.make [| seed |] in
  let inst =
    if gap = 0 then Fb_like.generate ~ports ~coflows st
    else Fb_like.generate_with_arrivals ~mean_gap:gap ~ports ~coflows st
  in
  let wst = Random.State.make [| seed; 1 |] in
  Instance.with_weights inst
    (Weights.random_permutation wst (Instance.num_coflows inst))

let run_on_net net inst policy =
  let sim =
    Switchsim.Simulator.create ~net ~ports:(Instance.ports inst)
      (Instance.demands inst)
  in
  Engine.run ~sim inst policy

let test_golden_case_d_64_ports () =
  let inst = golden_fb ~ports:64 ~coflows:40 1603 in
  check_golden "d at 64 ports" ~twct:1783780.0 ~slots:13921 ~matchings:4036
    ~digest:"897bac64a2ef867a410a4e1a639e23f6"
    (Scheduler.run ~case:Scheduler.Group_backfill inst
       (Ordering.by_load_over_weight inst))

let staggered = lazy (golden_fb ~gap:6 ~ports:16 ~coflows:60 2015)

let test_golden_staggered () =
  let inst = Lazy.force staggered in
  let order = Ordering.by_load_over_weight inst in
  check_golden "b staggered" ~twct:1267871.0 ~slots:5166 ~matchings:281
    ~digest:"a1aa8c40db08b7aad4d4481c0bf5e735"
    (Scheduler.run ~case:Scheduler.Backfill inst order);
  check_golden "d staggered" ~twct:1035121.0 ~slots:2938 ~matchings:282
    ~digest:"4c3a4ecf9144d0b5f3503d3527f74f24"
    (Scheduler.run ~case:Scheduler.Group_backfill inst order)

let test_golden_aggressive () =
  let inst = Lazy.force staggered in
  let groups =
    Grouping.deterministic inst (Ordering.by_load_over_weight inst)
  in
  check_golden "d aggressive" ~twct:921046.0 ~slots:2524 ~matchings:114
    ~digest:"8f136b322da32b2fb147e508fa61c8b6"
    (Scheduler.run_grouped ~backfill:true ~aggressive:true inst groups)

let test_golden_two_fabrics () =
  let inst = Lazy.force staggered in
  check_golden "d on rates [2; 1]" ~twct:549240.0 ~slots:1145 ~matchings:238
    ~digest:"6a45f09c6a43d7e796d6cc358ab466a2"
    (run_on_net
       (Switchsim.Net.uniform ~ports:16 ~rates:[ 2; 1 ])
       inst
       (Scheduler.case_policy ~case:Scheduler.Group_backfill inst
          (Ordering.by_load_over_weight inst)))

(* half the groups: the rest is served by the leftover path *)
let test_golden_leftovers () =
  let inst = Lazy.force staggered in
  let groups =
    Grouping.deterministic inst (Ordering.by_load_over_weight inst)
  in
  check_golden "d leftovers" ~twct:1934461.0 ~slots:2817 ~matchings:5
    ~digest:"2d55a116f9e37cefa98fa882da9e1e0a"
    (Scheduler.run_grouped ~backfill:true inst
       (Array.sub groups 0 (Array.length groups / 2)))

(* Every case on an oversubscribed two-tier net: the replay used to serve
   every owned pair and trip the simulator's core-capacity check.  With one
   rack the budget is vacuous and the schedule is Net.single's. *)
let test_cases_on_oversubscribed_net () =
  let inst = golden_fb ~ports:12 ~coflows:30 7 in
  let order = Ordering.by_load_over_weight inst in
  List.iter
    (fun case ->
      let name = Scheduler.case_name case in
      let policy () = Scheduler.case_policy ~case inst order in
      let r =
        run_on_net
          (Switchsim.Net.two_tier ~ports:12 ~rack_size:4 ~core_capacity:2)
          inst (policy ())
      in
      Alcotest.(check bool)
        ("case " ^ name ^ " completes") true
        (Array.for_all (fun c -> c > 0) r.Scheduler.completion);
      let single =
        run_on_net (Switchsim.Net.single ~ports:12) inst (policy ())
      in
      let vacuous =
        run_on_net
          (Switchsim.Net.two_tier ~ports:12 ~rack_size:12 ~core_capacity:2)
          inst (policy ())
      in
      check_golden ("case " ^ name ^ " one rack") ~twct:single.Scheduler.twct
        ~slots:single.Scheduler.slots ~matchings:single.Scheduler.matchings
        ~digest:(golden_digest single.Scheduler.completion) vacuous)
    Scheduler.all_cases

(* Racks {0,1} and {2,3}, one inter-rack transfer per slot.  The group's
   only demand, 0->2, augments to the matching 0->2, 1->0, 2->1, 3->3; the
   suffix coflow owes 2->1 (inter-rack) and 3->3 (rack-local).  The group's
   pair takes the core budget, the backfill pair 2->1 idles, and the
   rack-local 3->3 is served. *)
let test_core_budget_order () =
  let sim =
    Switchsim.Simulator.create
      ~net:(Switchsim.Net.two_tier ~ports:4 ~rack_size:2 ~core_capacity:1)
      ~ports:4
      [ (0, Mat.of_arrays [| [| 0; 0; 1; 0 |]; [| 0; 0; 0; 0 |];
                             [| 0; 0; 0; 0 |]; [| 0; 0; 0; 0 |] |]);
        (0, Mat.of_arrays [| [| 0; 0; 0; 0 |]; [| 0; 0; 0; 0 |];
                             [| 0; 1; 0; 0 |]; [| 0; 0; 0; 1 |] |]);
      ]
  in
  let state = Scheduler.make_state [| [| 0 |]; [| 1 |] |] in
  let served =
    List.sort compare
      (List.map
         (fun t -> Switchsim.Simulator.(t.src, t.dst, t.coflow))
         (Scheduler.next_slot state ~backfill:true sim))
  in
  Alcotest.(check (list (triple int int int)))
    "group's inter-rack pair, then rack-local backfill" [ (0, 2, 0); (3, 3, 1) ]
    served

(* Singleton groups, the first gated by a release at slot 50, and 998 of
   the other 999 coflows pending until 10^6: while the gate holds, each
   backfill decision examines the one live suffix entry. *)
let test_gated_backfill_visits_live () =
  let n = 1000 and live = 500 in
  let d = Mat.of_arrays [| [| 40; 0 |]; [| 0; 40 |] |] in
  let sim =
    Switchsim.Simulator.create ~ports:2
      (List.init n (fun k ->
           ((if k = 0 then 50 else if k = live then 0 else 1_000_000), d)))
  in
  let state =
    Scheduler.make_state (Grouping.singletons (Array.init n Fun.id))
  in
  let visited = Obs.Counter.make "policy.coflows_visited" in
  for slot = 1 to 4 do
    let before = Obs.Counter.value visited in
    let ts = Scheduler.next_slot state ~backfill:true sim in
    check_int (Printf.sprintf "entries examined in slot %d" slot) 1
      (Obs.Counter.value visited - before);
    Alcotest.(check (list int)) "serves the live coflow" [ live; live ]
      (List.map (fun t -> t.Switchsim.Simulator.coflow) ts);
    Switchsim.Simulator.step sim ts
  done

(* ---------- the replay's owner index against a coflow-major sweep ---------- *)

(* The oracle: the replay's former owner search.  For pair (i,
   matching.(i)), the first coflow of order.[lo, hi) that is released,
   still owes the pair and is not [taken]; found coflow by coflow, one
   [land] of its live rows with the still-unclaimed sources. *)
let sweep_owners sim order matching ~lo ~hi ~taken =
  let module S = Switchsim.Simulator in
  let m = S.ports sim in
  let bpw = Bits.bits_per_word in
  let owner = Array.make m (-1) in
  let unclaimed =
    Array.init (Bits.words_for m) (fun w ->
        Bits.low_mask (min bpw (m - (w * bpw))))
  in
  let left = ref m and p = ref lo in
  while !left > 0 && !p < hi do
    let k = order.(!p) in
    if S.released sim k then
      Array.iteri
        (fun w free ->
          let cand = ref (S.remaining_live_mask sim k w land free) in
          while !cand <> 0 do
            let b = !cand land - !cand in
            cand := !cand lxor b;
            let i = (w * bpw) + Bits.ntz b in
            let j = matching.(i) in
            if
              S.remaining_row_mask sim k i (Bits.word_of j)
              land (1 lsl Bits.bit_of j)
              <> 0
              && not (taken k i j)
            then begin
              owner.(i) <- !p;
              unclaimed.(w) <- unclaimed.(w) lxor b;
              decr left
            end
          done)
        unclaimed;
    incr p
  done;
  owner

(* The core budget as the replay spends it: the group's pairs first, then
   the backfill pairs, each source ascending. *)
let spend_core_budget net ~fabric matching owner ~mid =
  match Switchsim.Net.core_capacity net fabric with
  | None -> ()
  | Some cap ->
    let left = ref cap in
    List.iter
      (fun backfill ->
        Array.iteri
          (fun i p ->
            if
              p >= 0
              && p >= mid = backfill
              && Switchsim.Net.crosses_core net ~fabric ~src:i
                   ~dst:matching.(i)
            then if !left > 0 then decr left else owner.(i) <- -1)
          owner)
      [ false; true ]

(* The matchings the decision just taken served: the queue it found, or
   the one it rebuilt for the group it now clears (BvN is deterministic
   and the simulator has not stepped), or none on the greedy paths. *)
let served_matchings state sim ~current ~queue ~built =
  let open Scheduler in
  let u = state.current in
  if u >= Array.length state.start - 1 then []
  else if state.matchings_built > built then begin
    let d = Mat.make (Switchsim.Simulator.ports sim) in
    for p = state.start.(u) to state.start.(u + 1) - 1 do
      Switchsim.Simulator.iter_remaining sim state.order.(p) (Mat.add_entry d)
    done;
    List.map fst (Bvn.schedule d)
  end
  else if u = current then List.map fst queue
  else []

(* Check one decision of [state]: every served fabric's owners, through
   the index and through the sweep, and the transfers they imply.  Returns
   the number of owner arrays compared, or fails naming the slot. *)
let check_decision ~backfill ~aggressive state sim ~current ~queue ~built ts =
  let module S = Switchsim.Simulator in
  let net = S.net sim in
  let forder = Switchsim.Net.by_rate net in
  let u = state.Scheduler.current in
  let n = Array.length state.Scheduler.order in
  let served =
    List.filteri
      (fun fi _ -> fi < Array.length forder)
      (served_matchings state sim ~current ~queue ~built)
  in
  let expected = ref [] and taken_list = ref [] in
  List.iteri
    (fun fi matching ->
      let fabric = forder.(fi) in
      let lo = state.Scheduler.start.(u) and mid = state.Scheduler.start.(u + 1) in
      let hi = if backfill then n else mid in
      let taken k i j = List.mem (k, i, j) !taken_list in
      let want = sweep_owners sim state.Scheduler.order matching ~lo ~hi ~taken in
      let got =
        Array.copy (Scheduler.owners state sim matching ~lo ~hi ~taken)
      in
      if want <> got then
        Alcotest.failf "slot %d, fabric %d: index owners %s, sweep %s"
          (S.now sim + 1) fabric
          (String.concat " " (Array.to_list (Array.map string_of_int got)))
          (String.concat " " (Array.to_list (Array.map string_of_int want)));
      spend_core_budget net ~fabric matching want ~mid;
      Array.iteri
        (fun i p ->
          if p >= 0 then begin
            let k = state.Scheduler.order.(p) and j = matching.(i) in
            taken_list := (k, i, j) :: !taken_list;
            expected := { S.src = i; dst = j; coflow = k; fabric } :: !expected
          end)
        want)
    served;
  if served <> [] then begin
    let sorted l = List.sort compare l in
    let got = sorted ts and want = sorted !expected in
    let ok =
      if aggressive then List.for_all (fun t -> List.mem t got) want
      else got = want
    in
    if not ok then
      Alcotest.failf "slot %d: the decision's transfers are not the sweep's"
        (S.now sim + 1)
  end;
  List.length served

type owner_case = {
  o_ports : int;
  o_coflows : int;
  o_seed : int;
  o_grouped : bool;
  o_backfill : bool;
  o_aggressive : bool;
  o_net : int;  (** 0: single, 1: rates [2; 1], 2: binding two-tier *)
}

let owner_case_arb =
  let gen =
    QCheck.Gen.(
      let* o_ports = oneof [ int_range 1 70; int_range 61 64 ] in
      let* o_coflows = int_range 1 7 in
      let* o_seed = int_range 0 1_000_000 in
      let* o_grouped = bool in
      let* o_backfill = bool in
      let* o_aggressive = bool in
      let* o_net = int_range 0 2 in
      return
        { o_ports; o_coflows; o_seed; o_grouped; o_backfill; o_aggressive; o_net })
  in
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf
        "ports %d, coflows %d, seed %d, grouped %b, backfill %b, aggressive \
         %b, net %d"
        c.o_ports c.o_coflows c.o_seed c.o_grouped c.o_backfill c.o_aggressive
        c.o_net)
    gen

(* One run decided slot by slot: sparse random demands; releases at 0,
   staggered, or pending at [max_int] until a [set_release] wakes them,
   so unreleased coflows sit ahead of owners in a pair's list. *)
let run_owner_case c =
  let module S = Switchsim.Simulator in
  let st = Random.State.make [| c.o_seed |] in
  let m = c.o_ports in
  let demand () =
    let d = Mat.make m in
    for _ = 0 to Random.State.int st (2 * m) do
      Mat.add_entry d (Random.State.int st m) (Random.State.int st m)
        (1 + Random.State.int st 3)
    done;
    d
  in
  let coflows =
    List.init c.o_coflows (fun k ->
        let release =
          match Random.State.int st 3 with
          | 0 -> 0
          | 1 -> Random.State.int st 8
          | _ -> -(1 + Random.State.int st 12) (* pending; woken then *)
        in
        (k, release, demand ()))
  in
  let inst =
    Instance.make ~ports:m
      (List.map
         (fun (k, r, d) ->
           mk_coflow ~id:k ~release:(abs r)
             ~weight:(float_of_int (1 + Random.State.int st 5))
             d)
         coflows)
  in
  let order = Ordering.by_load_over_weight inst in
  let groups =
    if c.o_grouped then Grouping.deterministic inst order
    else Grouping.singletons order
  in
  let net =
    match c.o_net with
    | 0 -> Switchsim.Net.single ~ports:m
    | 1 -> Switchsim.Net.uniform ~ports:m ~rates:[ 2; 1 ]
    | _ ->
      Switchsim.Net.two_tier ~ports:m ~rack_size:(max 1 (m / 2))
        ~core_capacity:1
  in
  let sim =
    S.create ~net ~ports:m
      (List.map (fun (_, r, d) -> ((if r < 0 then max_int else r), d)) coflows)
  in
  let state = Scheduler.make_state groups in
  let compared = ref 0 in
  while (not (S.all_complete sim)) && S.now sim < 5000 do
    List.iter
      (fun (k, r, _) ->
        if r < 0 && -r <= S.now sim && not (S.released sim k) then
          S.set_release sim k (S.now sim))
      coflows;
    let current = state.Scheduler.current
    and queue = state.Scheduler.queue
    and built = state.Scheduler.matchings_built in
    let ts =
      Scheduler.next_slot state ~backfill:c.o_backfill
        ~aggressive:c.o_aggressive sim
    in
    compared :=
      !compared
      + check_decision ~backfill:c.o_backfill ~aggressive:c.o_aggressive state
          sim ~current ~queue ~built ts;
    S.step sim ts
  done;
  if not (S.all_complete sim) then Alcotest.fail "run did not complete";
  !compared

let prop_owner_index_is_sweep =
  QCheck.Test.make ~name:"owner index = coflow-major sweep" ~count:120
    owner_case_arb (fun c -> run_owner_case c > 0)

(* Demand grown mid-run: on a pair the suffix coflow had drained, and on
   a pair the group's coflow never owed.  The group {0} clears the
   identity matching (its aggregate [[0, 0], [0, 6]] augments to 6 I), so
   pair (0, 0) is backfill's until coflow 0 gains demand there. *)
let test_owner_index_sees_growth () =
  let module S = Switchsim.Simulator in
  let sim =
    S.create ~ports:2
      [ (0, Mat.of_arrays [| [| 0; 0 |]; [| 0; 6 |] |]);
        (0, Mat.of_arrays [| [| 1; 0 |]; [| 5; 0 |] |]);
      ]
  in
  let state = Scheduler.make_state [| [| 0 |]; [| 1 |] |] in
  let slot ~expect =
    let current = state.Scheduler.current
    and queue = state.Scheduler.queue
    and built = state.Scheduler.matchings_built in
    let ts = Scheduler.next_slot state ~backfill:true sim in
    check_int "one served matching" 1
      (check_decision ~backfill:true ~aggressive:false state sim ~current
         ~queue ~built ts);
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "slot %d" (S.now sim + 1))
      expect
      (List.sort compare
         (List.map (fun t -> S.(t.src, t.dst, t.coflow)) ts));
    S.step sim ts
  in
  slot ~expect:[ (0, 0, 1); (1, 1, 0) ];
  (* coflow 1 drained (0, 0): the pair idles *)
  slot ~expect:[ (1, 1, 0) ];
  S.add_demand sim 1 ~src:0 ~dst:0 2;
  slot ~expect:[ (0, 0, 1); (1, 1, 0) ];
  S.add_demand sim 0 ~src:0 ~dst:0 1;
  slot ~expect:[ (0, 0, 0); (1, 1, 0) ];
  slot ~expect:[ (0, 0, 1); (1, 1, 0) ]

(* ---------- Counterexample (Appendix B) ---------- *)

let test_counterexample () =
  Alcotest.(check bool) "paper's contradiction holds" true
    (Counterexample.residual_infeasible ());
  (* No schedule can reach V_1 and V_2 simultaneously, so every run of ours
     must exceed at least one of them. *)
  let inst = Counterexample.instance () in
  let order = [| 0; 1 |] in
  List.iter
    (fun case ->
      let r = Scheduler.run ~case inst order in
      let c1 = r.Scheduler.completion.(0) and c2 = r.Scheduler.completion.(1) in
      Alcotest.(check bool)
        (Printf.sprintf "case %s cannot match both lower bounds"
           (Scheduler.case_name case))
        true
        (c1 > Counterexample.v.(0) || c2 > Counterexample.v.(1)))
    Scheduler.all_cases

(* ---------- Ratio limits ---------- *)

let test_ratio_limits () =
  Alcotest.(check (float 1e-9)) "67/3" (67.0 /. 3.0)
    (Verify.deterministic_ratio_limit ~with_releases:true);
  Alcotest.(check (float 1e-9)) "64/3" (64.0 /. 3.0)
    (Verify.deterministic_ratio_limit ~with_releases:false)

let test_randomized_expected () =
  let inst = random_instance 47 in
  let order = Ordering.by_load_over_weight inst in
  let st = Random.State.make [| 3 |] in
  let mean, std = Randomized.expected_twct ~samples:5 st inst order in
  Alcotest.(check bool) "positive mean" true (mean > 0.0);
  Alcotest.(check bool) "finite std" true (std >= 0.0 && Float.is_finite std)

let qprops =
  List.map QCheck_alcotest.to_alcotest
    [ prop_bvn_duration_is_load;
      prop_bvn_matchings_polynomial;
      prop_bvn_covers_demand;
      prop_bvn_matchings_valid;
      prop_lp_lower_bounds_vload;
      prop_lp_cbar_at_least_load;
      prop_lemma2_all_cases;
      prop_lemma3_lp;
      prop_proposition1;
      prop_prop1_grouped_with_releases;
      prop_theorem1_ratio;
      prop_randomized_draw_bound;
      prop_aggressive_dominates_feasibility;
      prop_randomized_completes;
      prop_primal_dual_permutation;
      prop_primal_dual_duals_nonneg;
      prop_primal_dual_schedules_sound;
      prop_backward_orders_permutation_invariant;
      prop_shafiee_reduces_without_releases;
      prop_arena_policies_within_guarantee;
      prop_chen_hetero_single_is_chen;
      prop_sebf_madd_sound;
      prop_online_rules_sound;
      prop_decentralized_sound;
      prop_dag_scheduler_sound;
      prop_grouped_schedule_replays;
      prop_tighter_grid_tighter_bound;
      prop_baselines_lemma2;
      prop_brute_below_heuristics;
      prop_brute_above_lp;
      prop_bvn_matches_oracle;
      prop_owner_index_is_sweep;
    ]

let () =
  Alcotest.run "core"
    [ ( "loads",
        [ Alcotest.test_case "Figure 1 load" `Quick test_load_fig1;
          Alcotest.test_case "Appendix B cumulative loads" `Quick
            test_cumulative_appendix_b;
          Alcotest.test_case "effective bottleneck" `Quick
            test_effective_bottleneck;
        ] );
      ( "bvn",
        [ Alcotest.test_case "augment balances" `Quick test_augment_balances;
          Alcotest.test_case "Figure 1 duration" `Quick
            test_schedule_fig1_duration;
          Alcotest.test_case "zero matrix" `Quick test_schedule_zero;
          Alcotest.test_case "unbalanced rejected" `Quick
            test_decompose_unbalanced_rejected;
          Alcotest.test_case "restore = augmented" `Quick
            test_restore_equals_augmented;
          Alcotest.test_case "allocation per matching" `Quick
            test_bvn_allocation;
        ] );
      ( "lp",
        [ Alcotest.test_case "values partition" `Quick
            test_lp_values_partition;
          Alcotest.test_case "trivial instances" `Quick
            test_lp_trivial_instances;
          Alcotest.test_case "interval count" `Quick test_interval_count;
          Alcotest.test_case "single coflow LP" `Quick
            test_interval_lp_single_coflow;
          Alcotest.test_case "dense = revised" `Quick
            test_interval_lp_dense_matches_revised;
          Alcotest.test_case "LP-EXP tighter" `Quick
            test_time_indexed_at_least_interval;
          Alcotest.test_case "LP-EXP size guard" `Quick test_time_indexed_guard;
          Alcotest.test_case "LP-EXP charges an empty coflow w * r" `Quick
            test_time_indexed_empty_coflow;
          Alcotest.test_case "budgets threaded through variants" `Quick
            test_lp_budget_threaded_through_variants;
          Alcotest.test_case "warm start reuses basis" `Quick
            test_lp_warm_start_reuses_basis;
          Alcotest.test_case "warm start survives remapping" `Quick
            test_lp_warm_start_remapped_hints;
          Alcotest.test_case "colliding warm hints fall back" `Quick
            test_lp_warm_start_colliding_hints_fall_back;
          Alcotest.test_case "order is permutation" `Quick
            test_lp_order_is_permutation;
          Alcotest.test_case "release dates respected" `Quick
            test_lp_release_dates_respected;
        ] );
      ( "ordering",
        [ Alcotest.test_case "arrival" `Quick test_ordering_arrival;
          Alcotest.test_case "by load/weight" `Quick
            test_ordering_by_load_weight;
          Alcotest.test_case "by size" `Quick test_ordering_by_total_size;
          Alcotest.test_case "is_permutation" `Quick test_is_permutation;
        ] );
      ( "grouping",
        [ Alcotest.test_case "singletons" `Quick test_grouping_singletons;
          Alcotest.test_case "geometric classes" `Quick
            test_grouping_deterministic_classes;
          Alcotest.test_case "class merging" `Quick
            test_grouping_deterministic_merges;
          Alcotest.test_case "deterministic huge loads" `Quick
            test_grouping_deterministic_huge_loads;
          Alcotest.test_case "flatten preserves order" `Quick
            test_grouping_flatten_preserves_order;
          Alcotest.test_case "randomized grouping" `Quick
            test_randomized_grouping_valid;
        ] );
      ( "scheduler",
        [ Alcotest.test_case "single coflow meets rho" `Quick
            test_single_coflow_meets_load_bound;
          Alcotest.test_case "all cases complete" `Quick
            test_all_cases_complete;
          Alcotest.test_case "backfill vs makespan" `Quick
            test_backfill_never_hurts_makespan_here;
          Alcotest.test_case "sequential base case" `Quick
            test_sequential_base_case_is_sum_of_loads;
          Alcotest.test_case "release dates respected" `Quick
            test_grouped_respects_release_dates;
          Alcotest.test_case "policy exposed" `Quick test_policy_exposed;
          Alcotest.test_case "aggressive is work-conserving" `Quick
            test_aggressive_work_conserving_invariant;
          Alcotest.test_case "matchings counted" `Quick
            test_scheduler_matchings_counted;
          Alcotest.test_case "empty instance" `Quick
            test_scheduler_empty_instance;
          Alcotest.test_case "zero-demand coflow" `Quick
            test_scheduler_zero_demand_coflow;
          Alcotest.test_case "zero-demand coflow with release" `Quick
            test_zero_demand_coflow_completes_on_arrival;
          Alcotest.test_case "empty grouping" `Quick test_grouping_empty_order;
          Alcotest.test_case "non-covering grouping completes" `Quick
            test_scheduler_non_covering_grouping_completes;
          Alcotest.test_case "vanished group demand advances" `Quick
            test_scheduler_vanished_group_demand_advances;
          Alcotest.test_case "make_state is linear" `Quick
            test_make_state_linear;
          Alcotest.test_case "all cases on an oversubscribed net" `Quick
            test_cases_on_oversubscribed_net;
          Alcotest.test_case "core budget: group first, rack-local kept" `Quick
            test_core_budget_order;
          Alcotest.test_case "gated backfill visits live coflows" `Quick
            test_gated_backfill_visits_live;
          Alcotest.test_case "owner index sees grown demand" `Quick
            test_owner_index_sees_growth;
        ] );
      ( "grouped golden",
        [ Alcotest.test_case "case (d) at 64 ports" `Quick
            test_golden_case_d_64_ports;
          Alcotest.test_case "cases (b) and (d), staggered releases" `Quick
            test_golden_staggered;
          Alcotest.test_case "case (d), aggressive" `Quick
            test_golden_aggressive;
          Alcotest.test_case "case (d) on rates [2; 1]" `Quick
            test_golden_two_fabrics;
          Alcotest.test_case "case (d), leftovers" `Quick
            test_golden_leftovers;
        ] );
      ( "baselines",
        [ Alcotest.test_case "baselines complete" `Quick
            test_baselines_complete;
          Alcotest.test_case "SEBF+MADD solo optimal" `Quick
            test_sebf_madd_single_coflow_optimal;
        ] );
      ( "primal-dual",
        [ Alcotest.test_case "Smith's rule on 1 port" `Quick
            test_primal_dual_single_port_is_wspt;
          Alcotest.test_case "zero-load fallback order" `Quick
            test_primal_dual_zero_load_fallback;
          Alcotest.test_case "tie-break ignores listing order" `Quick
            test_primal_dual_ties_permutation_invariant;
        ] );
      ( "online",
        [ Alcotest.test_case "respects releases" `Quick
            test_online_respects_releases;
          Alcotest.test_case "work conserving" `Quick
            test_online_work_conserving;
        ] );
      ( "dag",
        [ Alcotest.test_case "diamond" `Quick test_dag_scheduler_diamond;
          Alcotest.test_case "digest" `Quick test_dag_digest;
        ] );
      ( "decentralized",
        [ Alcotest.test_case "single coflow" `Quick
            test_decentralized_single_coflow;
          Alcotest.test_case "rounds validation" `Quick
            test_decentralized_rounds_validation;
          Alcotest.test_case "round count effects" `Quick
            test_decentralized_more_rounds_no_worse_makespan;
        ] );
      ( "metrics",
        [ Alcotest.test_case "values" `Quick test_metrics;
          Alcotest.test_case "percentile integer order" `Quick
            test_percentile_int_order;
          Alcotest.test_case "percentile matches histogram" `Quick
            test_percentile_matches_histogram;
          Alcotest.test_case "validation" `Quick test_metrics_validation;
          Alcotest.test_case "empty errors name context" `Quick
            test_metrics_empty_errors_name_context;
        ] );
      ( "lp-grids",
        [ Alcotest.test_case "base 2 = default" `Quick
            test_interval_base_two_matches_default;
          Alcotest.test_case "invalid base" `Quick test_interval_base_invalid;
        ] );
      ( "brute",
        [ Alcotest.test_case "Figure 1 optimum" `Quick test_brute_fig1;
          Alcotest.test_case "large rejected" `Quick test_brute_rejects_large;
        ] );
      ( "counterexample",
        [ Alcotest.test_case "Appendix B" `Quick test_counterexample;
          Alcotest.test_case "Prop 1 gap with releases" `Quick
            test_prop1_literal_fails_with_releases;
        ] );
      ( "limits",
        [ Alcotest.test_case "ratio constants" `Quick test_ratio_limits;
          Alcotest.test_case "randomized expectation" `Quick
            test_randomized_expected;
        ] );
      ("properties", qprops);
    ]

(* Tests for the LP substrate: the revised simplex and the dense tableau
   oracle (test/dense_simplex.ml) against known optima, against each other,
   and against feasibility checks. *)

open Lp

let solve_both ?warm_basis model =
  let d = Dense_simplex.solve model in
  let r = Revised_simplex.solve ?warm_basis model in
  (d, r)

let check_status = Alcotest.(check string)

let status s = Solution.status_to_string s.Solution.status

let check_obj name expected sol =
  Alcotest.(check (float 1e-6)) name expected sol.Solution.objective

(* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18  (classic; opt 36) *)
let wyndor () =
  let m = Model.create ~name:"wyndor" () in
  let x = Model.add_var ~name:"x" m and y = Model.add_var ~name:"y" m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Le 4.0);
  ignore (Model.add_constraint m [ (2.0, y) ] Model.Le 12.0);
  ignore (Model.add_constraint m [ (3.0, x); (2.0, y) ] Model.Le 18.0);
  Model.maximize m [ (3.0, x); (5.0, y) ];
  (m, x, y)

let test_wyndor () =
  let m, x, y = wyndor () in
  let d, r = solve_both m in
  check_status "dense optimal" "optimal" (status d);
  check_status "revised optimal" "optimal" (status r);
  check_obj "dense obj" 36.0 d;
  check_obj "revised obj" 36.0 r;
  Alcotest.(check (float 1e-6)) "x" 2.0 (Solution.value d x);
  Alcotest.(check (float 1e-6)) "y" 6.0 (Solution.value r y)

let test_minimization_with_ge () =
  (* min 2x + 3y st x + y >= 10, x >= 2; opt at (10, 0)? x+y>=10 with cost
     2 and 3 puts everything on x: obj 20. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Ge 10.0);
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Ge 2.0);
  Model.minimize m [ (2.0, x); (3.0, y) ];
  let d, r = solve_both m in
  check_obj "dense" 20.0 d;
  check_obj "revised" 20.0 r

let test_equality () =
  (* min x + y st x + 2y = 6, x - y = 0 -> x = y = 2, obj 4. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (2.0, y) ] Model.Eq 6.0);
  ignore (Model.add_constraint m [ (1.0, x); (-1.0, y) ] Model.Eq 0.0);
  Model.minimize m [ (1.0, x); (1.0, y) ];
  let d, r = solve_both m in
  check_obj "dense" 4.0 d;
  check_obj "revised" 4.0 r;
  Alcotest.(check (float 1e-6)) "x value" 2.0 (Solution.value r x)

let test_infeasible () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Le 1.0);
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Ge 2.0);
  Model.minimize m [ (1.0, x) ];
  let d, r = solve_both m in
  check_status "dense" "infeasible" (status d);
  check_status "revised" "infeasible" (status r)

let test_unbounded () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (-1.0, x) ] Model.Le 0.0);
  Model.minimize m [ (-1.0, x) ];
  let d, r = solve_both m in
  check_status "dense" "unbounded" (status d);
  check_status "revised" "unbounded" (status r)

let test_degenerate () =
  (* A classically degenerate LP (multiple constraints through the
     optimum). *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Le 1.0);
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Le 1.0);
  ignore (Model.add_constraint m [ (1.0, y) ] Model.Le 1.0);
  ignore (Model.add_constraint m [ (2.0, x); (1.0, y) ] Model.Le 2.0);
  Model.maximize m [ (1.0, x); (1.0, y) ];
  let d, r = solve_both m in
  check_obj "dense" 1.0 d;
  check_obj "revised" 1.0 r

let test_negative_rhs () =
  (* min x st -x <= -5  (i.e. x >= 5). *)
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (-1.0, x) ] Model.Le (-5.0));
  Model.minimize m [ (1.0, x) ];
  let d, r = solve_both m in
  check_obj "dense" 5.0 d;
  check_obj "revised" 5.0 r

let test_duplicate_terms_merged () =
  (* x + x <= 4 must behave as 2x <= 4. *)
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (1.0, x) ] Model.Le 4.0);
  Model.maximize m [ (1.0, x) ];
  let _, r = solve_both m in
  check_obj "merged" 2.0 r

let test_objective_constant () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Le 3.0);
  Model.maximize m ~constant:10.0 [ (2.0, x) ];
  let d, r = solve_both m in
  check_obj "dense" 16.0 d;
  check_obj "revised" 16.0 r

let test_zero_objective_feasibility () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Eq 7.0);
  let d, r = solve_both m in
  check_status "dense feasible" "optimal" (status d);
  check_status "revised feasible" "optimal" (status r);
  Alcotest.(check (float 1e-6)) "x" 7.0 (Solution.value r x)

let test_warm_basis_used () =
  (* min x + y st x + y >= 1 (as Le with negative coefficients this becomes
     a flip); use an assignment-style model where the crash basis is valid:
     x1 = 1 fixing row. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Eq 1.0);
  ignore (Model.add_constraint m [ (3.0, x); (1.0, y) ] Model.Le 3.0);
  Model.minimize m [ (5.0, x); (2.0, y) ];
  (* warm basis: x basic on the equality row, slack on the Le row *)
  let r = Revised_simplex.solve ~warm_basis:[| (x :> int); -1 |] m in
  check_status "optimal" "optimal" (status r);
  check_obj "objective" 2.0 r

let test_warm_basis_rejected_falls_back () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Eq 2.0);
  Model.minimize m [ (1.0, x) ];
  (* -1 on an equality row is invalid; solver must fall back to phase 1. *)
  let r = Revised_simplex.solve ~warm_basis:[| -1 |] m in
  check_status "optimal anyway" "optimal" (status r);
  check_obj "objective" 2.0 r

let test_warm_basis_singular_falls_back () =
  (* a structurally plausible proposal can still be rank-deficient: the
     same variable on two rows duplicates a basis column, so B is
     singular.  A long-lived service remapping a stale basis across
     epochs can produce exactly this; the solver must detect it, fall
     back to the crash basis, and still reach the cold optimum. *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Eq 4.0);
  ignore (Model.add_constraint m [ (1.0, x); (2.0, y) ] Model.Le 6.0);
  Model.minimize m [ (3.0, x); (1.0, y) ];
  let cold = Revised_simplex.solve m in
  check_status "cold optimal" "optimal" (status cold);
  let singular = Revised_simplex.solve ~warm_basis:[| (x :> int); (x :> int) |] m in
  check_status "singular proposal recovered" "optimal" (status singular);
  check_obj "same objective" cold.Solution.objective singular;
  (* out-of-range column indices are equally survivable *)
  let garbage = Revised_simplex.solve ~warm_basis:[| 99; -7 |] m in
  check_status "garbage proposal recovered" "optimal" (status garbage);
  check_obj "same objective again" cold.Solution.objective garbage

let test_redundant_equality_rows () =
  (* duplicated equality rows exercise the redundant-artificial path in the
     revised solver's phase-1 cleanup *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Eq 2.0);
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Eq 2.0);
  ignore (Model.add_constraint m [ (2.0, x); (2.0, y) ] Model.Eq 4.0);
  Model.minimize m [ (3.0, x); (1.0, y) ];
  let d, r = solve_both m in
  check_obj "dense" 2.0 d;
  check_obj "revised" 2.0 r

let test_residuals () =
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x); (2.0, y) ] Model.Le 10.0);
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Ge 1.0);
  let std = Std_form.of_model m in
  let res = Lp_helpers.residuals std [| 2.0; 3.0 |] in
  Alcotest.(check (float 1e-9)) "row 0" (-2.0) res.(0);
  Alcotest.(check (float 1e-9)) "row 1" 1.0 res.(1)

let test_iteration_limit () =
  let m = Model.create () in
  let xs = Lp_helpers.add_vars m 6 in
  Array.iteri
    (fun i x ->
      ignore
        (Model.add_constraint m [ (1.0, x) ] Model.Le (float_of_int (i + 1))))
    xs;
  Model.maximize m (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  let r = Revised_simplex.solve ~max_iterations:1 m in
  check_status "hit limit" "iteration-limit" (status r)

let test_deadline_zero_trips_first_check () =
  (* The deadline must be wall-clock (monotonic), not CPU seconds: a budget
     of 0.0 expires immediately, so the every-32-pivots check — which also
     runs before the very first pivot — must abort the solve at iteration 0.
     Under the old CPU-second clock the first check compared against a
     freshly read Sys.time and could let an arbitrary number of pivots
     through. *)
  let m, _, _ = wyndor () in
  let r = Revised_simplex.solve ~deadline:0.0 m in
  check_status "expired budget" "time-limit" (status r);
  Alcotest.(check int) "no pivots ran" 0 r.Solution.iterations

let test_duals_wyndor () =
  let m, _, _ = wyndor () in
  let r = Revised_simplex.solve m in
  match r.Solution.duals with
  | None -> Alcotest.fail "expected duals at optimum"
  | Some y ->
    (* strong duality: y . b = 36 (known duals: 0, 3/2, 1) *)
    let dot = (y.(0) *. 4.0) +. (y.(1) *. 12.0) +. (y.(2) *. 18.0) in
    Alcotest.(check (float 1e-6)) "strong duality" 36.0 dot;
    Alcotest.(check (float 1e-6)) "y1" 0.0 y.(0);
    Alcotest.(check (float 1e-6)) "y2" 1.5 y.(1);
    Alcotest.(check (float 1e-6)) "y3" 1.0 y.(2)

let test_pp_smoke () =
  let m, _, _ = wyndor () in
  let s = Format.asprintf "%a" Model.pp m in
  Alcotest.(check bool) "mentions max" true
    (Astring.String.is_infix ~affix:"max" s)

(* ---------- presolve ---------- *)

let test_presolve_fixes_singletons () =
  (* x = 3 fixed by a singleton row; y solved by simplex *)
  let m = Model.create () in
  let x = Model.add_var m and y = Model.add_var m in
  ignore (Model.add_constraint m [ (2.0, x) ] Model.Eq 6.0);
  ignore (Model.add_constraint m [ (1.0, x); (1.0, y) ] Model.Le 10.0);
  Model.maximize m [ (1.0, x); (2.0, y) ];
  (match Presolve.reduce m with
  | Presolve.Reduced (reduced, red) ->
    Alcotest.(check int) "one variable left" 1 (Model.num_vars reduced);
    Alcotest.(check bool) "stats mention fix" true
      (Astring.String.is_infix ~affix:"1 variables fixed" (Presolve.stats red))
  | _ -> Alcotest.fail "expected Reduced");
  let sol = Presolve.solve m in
  check_obj "optimum" 17.0 sol;
  Alcotest.(check (float 1e-9)) "x restored" 3.0 (Solution.value sol x);
  Alcotest.(check (float 1e-9)) "y restored" 7.0 (Solution.value sol y)

let test_presolve_detects_negative_fix () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Eq (-2.0));
  Model.minimize m [ (1.0, x) ];
  match Presolve.reduce m with
  | Presolve.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_presolve_conflicting_fixes () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Eq 1.0);
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Eq 2.0);
  Model.minimize m [ (1.0, x) ];
  match Presolve.reduce m with
  | Presolve.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_presolve_unbounded_free_column () =
  let m = Model.create () in
  let x = Model.add_var m in
  let y = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Le 1.0);
  (* y appears nowhere and improves a maximisation *)
  Model.maximize m [ (1.0, x); (1.0, y) ];
  match Presolve.reduce m with
  | Presolve.Unbounded _ -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let test_presolve_drops_empty_and_duplicates () =
  let m = Model.create () in
  let x = Model.add_var m in
  ignore (Model.add_constraint m [] Model.Le 5.0);
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Le 4.0);
  ignore (Model.add_constraint m [ (1.0, x) ] Model.Le 4.0);
  Model.maximize m [ (1.0, x) ];
  (match Presolve.reduce m with
  | Presolve.Reduced (reduced, _) ->
    Alcotest.(check int) "one row left" 1 (Model.num_constraints reduced)
  | _ -> Alcotest.fail "expected Reduced");
  check_obj "optimum preserved" 4.0 (Presolve.solve m)

let test_presolve_contradictory_empty_row () =
  let m = Model.create () in
  let _ = Model.add_var m in
  ignore (Model.add_constraint m [] Model.Ge 3.0);
  match Presolve.reduce m with
  | Presolve.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

(* ---------- LP text format ---------- *)

let test_lp_io_roundtrip_wyndor () =
  let m, _, _ = wyndor () in
  let m' = Lp_io.of_string (Lp_io.to_string m) in
  let r = Revised_simplex.solve m' in
  check_status "optimal" "optimal" (status r);
  check_obj "same optimum" 36.0 r

let test_lp_io_parse_handwritten () =
  let text =
    "\\ a handwritten program\n\
     Minimize\n\
     \ cost: 2 x + 3 y\n\
     Subject To\n\
     \ demand: x + y >= 10\n\
     \ floor: x >= 2\n\
     Bounds\n\
     \ x >= 0\n\
     End\n"
  in
  let m = Lp_io.of_string text in
  Alcotest.(check int) "two variables" 2 (Model.num_vars m);
  Alcotest.(check int) "two rows" 2 (Model.num_constraints m);
  let r = Revised_simplex.solve m in
  check_obj "solves" 20.0 r

let test_lp_io_negative_rhs_and_coeffs () =
  let text =
    "Maximize\n\
     \ obj: x - 2 y\n\
     Subject To\n\
     \ c0: -x + y <= -1\n\
     \ c1: x + y <= 5\n\
     End\n"
  in
  let m = Lp_io.of_string text in
  let r = Revised_simplex.solve m in
  check_obj "optimum" 5.0 r

let test_lp_io_rejects_garbage () =
  List.iter
    (fun text ->
      try
        ignore (Lp_io.of_string text);
        Alcotest.fail "expected Failure"
      with Failure _ -> ())
    [ "Minimize\n obj: x ? y\nEnd\n";
      " x + y <= 1\n";
      "Minimize\n obj: x\nSubject To\n c: x\nEnd\n";
      "Minimize\n obj: x\nBounds\n x >= 5\nEnd\n";
      "Minimize\n obj: x\nEnd\nleftover\n";
    ]

let test_lp_io_file_roundtrip () =
  let m, _, _ = wyndor () in
  let path = Filename.temp_file "model" ".lp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Lp_io.save path m;
      let r = Revised_simplex.solve (Lp_io.load path) in
      check_obj "same optimum" 36.0 r)

(* ---------- randomized cross-validation ---------- *)

(* Random LPs: min c x over Ax <= b with b >= 0 (always feasible, x = 0) and
   c >= 0 (always bounded).  Dense and revised must agree. *)
let feasible_lp_gen =
  QCheck.Gen.(
    let* nvars = int_range 1 6 in
    let* nrows = int_range 1 6 in
    let* seed = int_range 0 1_000_000 in
    return (nvars, nrows, seed))

let build_feasible (nvars, nrows, seed) =
  let st = Random.State.make [| seed |] in
  let m = Model.create () in
  let xs = Lp_helpers.add_vars m nvars in
  for _ = 1 to nrows do
    let expr =
      Array.to_list xs
      |> List.filter_map (fun v ->
             if Random.State.float st 1.0 < 0.7 then
               Some (float_of_int (Random.State.int st 9 - 4), v)
             else None)
    in
    ignore (Model.add_constraint m expr Model.Le
              (float_of_int (Random.State.int st 20)))
  done;
  (* Mix of signs in the objective, but bounded: add a box x_i <= 10. *)
  Array.iter
    (fun v -> ignore (Model.add_constraint m [ (1.0, v) ] Model.Le 10.0))
    xs;
  let obj =
    Array.to_list xs
    |> List.map (fun v -> (float_of_int (Random.State.int st 11 - 5), v))
  in
  Model.minimize m obj;
  m

(* Like [build_feasible] but with a shared random state and an optional
   degeneracy knob: duplicating each row makes the optimal vertex
   over-determined, which exercises Bland's rule and the tiny-pivot
   refactor-and-retry path in the eta-file solver. *)
let build_random ?(degenerate = false) st =
  let nvars = 1 + Random.State.int st 6 in
  let nrows = 1 + Random.State.int st 6 in
  let m = Model.create () in
  let xs = Lp_helpers.add_vars m nvars in
  for _ = 1 to nrows do
    let expr =
      Array.to_list xs
      |> List.filter_map (fun v ->
             if Random.State.float st 1.0 < 0.7 then
               Some (float_of_int (Random.State.int st 9 - 4), v)
             else None)
    in
    let b = float_of_int (Random.State.int st 20) in
    ignore (Model.add_constraint m expr Model.Le b);
    if degenerate then ignore (Model.add_constraint m expr Model.Le b)
  done;
  Array.iter
    (fun v -> ignore (Model.add_constraint m [ (1.0, v) ] Model.Le 10.0))
    xs;
  Model.minimize m
    (Array.to_list xs
    |> List.map (fun v -> (float_of_int (Random.State.int st 11 - 5), v)));
  m

(* 200 seeded random LPs: the eta/LU revised solver must match the dense
   tableau to 1e-6.  Every third instance is degenerate (duplicated rows),
   and every optimal solve is repeated warm-started from its own exported
   basis, which must reproduce the optimum without a single pivot. *)
let test_cross_check_suite () =
  let st = Random.State.make [| 0x5EED; 2026 |] in
  for case = 1 to 200 do
    let m = build_random ~degenerate:(case mod 3 = 0) st in
    let d = Dense_simplex.solve m in
    let r = Revised_simplex.solve m in
    let name = Printf.sprintf "case %d" case in
    check_status (name ^ " status") (status d) (status r);
    if d.Solution.status = Solution.Optimal then begin
      Alcotest.(check (float 1e-6))
        (name ^ " objective") d.Solution.objective r.Solution.objective;
      match r.Solution.basis with
      | None -> Alcotest.fail (name ^ ": optimal solve exported no basis")
      | Some basis ->
        let w = Revised_simplex.solve ~warm_basis:basis m in
        Alcotest.(check (float 1e-6))
          (name ^ " warm objective") d.Solution.objective
          w.Solution.objective;
        Alcotest.(check int) (name ^ " warm pivots") 0 w.Solution.iterations
    end
  done

let test_refactor_threshold () =
  (* one pivot per variable; capping the eta file at a single update forces
     a refactorization per iteration, with the same optimum *)
  let m = Model.create () in
  let xs = Lp_helpers.add_vars m 8 in
  Array.iteri
    (fun i x ->
      ignore
        (Model.add_constraint m [ (1.0, x) ] Model.Le (float_of_int (i + 1))))
    xs;
  Model.maximize m (Array.to_list (Array.map (fun x -> (1.0, x)) xs));
  let relaxed = Revised_simplex.solve m in
  let eager = Revised_simplex.solve ~refactor:1 m in
  check_obj "relaxed optimum" 36.0 relaxed;
  check_obj "eager optimum" 36.0 eager;
  Alcotest.(check bool) "capped eta file forces refactorizations" true
    (eager.Solution.refactors > relaxed.Solution.refactors)

let prop_dense_eq_revised =
  QCheck.Test.make ~name:"dense and revised agree" ~count:150
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       feasible_lp_gen)
    (fun params ->
      let m = build_feasible params in
      let d = Dense_simplex.solve m in
      let r = Revised_simplex.solve m in
      d.Solution.status = Solution.Optimal
      && r.Solution.status = Solution.Optimal
      && Float.abs (d.Solution.objective -. r.Solution.objective)
         < 1e-5 *. (1.0 +. Float.abs d.Solution.objective))

let prop_solutions_feasible =
  QCheck.Test.make ~name:"returned points are feasible" ~count:150
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       feasible_lp_gen)
    (fun params ->
      let m = build_feasible params in
      let r = Revised_simplex.solve m in
      let std = Std_form.of_model m in
      let res = Lp_helpers.residuals std r.Solution.values in
      Array.for_all (fun v -> v <= 1e-6) res
      && Array.for_all (fun v -> v >= -1e-9) r.Solution.values)

let prop_lp_io_roundtrip =
  QCheck.Test.make ~name:"LP text format round-trips optima" ~count:80
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       feasible_lp_gen)
    (fun params ->
      let m = build_feasible params in
      let m' = Lp_io.of_string (Lp_io.to_string m) in
      let a = Revised_simplex.solve m and b = Revised_simplex.solve m' in
      a.Solution.status = b.Solution.status
      && (a.Solution.status <> Solution.Optimal
         || Float.abs (a.Solution.objective -. b.Solution.objective)
            < 1e-6 *. (1.0 +. Float.abs a.Solution.objective)))

let prop_strong_duality =
  QCheck.Test.make ~name:"strong duality on random feasible LPs" ~count:120
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       feasible_lp_gen)
    (fun params ->
      let m = build_feasible params in
      let r = Revised_simplex.solve m in
      match (r.Solution.status, r.Solution.duals) with
      | Solution.Optimal, Some y ->
        let dot = ref 0.0 in
        Array.iteri
          (fun row yr ->
            let _, _, b = Model.constraint_row m row in
            dot := !dot +. (yr *. b))
          y;
        Float.abs (!dot -. r.Solution.objective)
        < 1e-5 *. (1.0 +. Float.abs r.Solution.objective)
      | _ -> false)

let prop_complementary_slackness =
  QCheck.Test.make ~name:"complementary slackness" ~count:120
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       feasible_lp_gen)
    (fun params ->
      let m = build_feasible params in
      let r = Revised_simplex.solve m in
      match (r.Solution.status, r.Solution.duals) with
      | Solution.Optimal, Some y ->
        let std = Std_form.of_model m in
        let res = Lp_helpers.residuals std r.Solution.values in
        Array.for_all2
          (fun yr slack ->
            (* non-zero multiplier => the row binds *)
            Float.abs yr < 1e-6 || Float.abs slack < 1e-5)
          y res
      | _ -> false)

let prop_presolve_preserves_optimum =
  QCheck.Test.make ~name:"presolve preserves the optimum" ~count:100
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       feasible_lp_gen)
    (fun params ->
      let m = build_feasible params in
      let direct = Revised_simplex.solve m in
      let pre = Presolve.solve m in
      direct.Solution.status = pre.Solution.status
      && (direct.Solution.status <> Solution.Optimal
         || Float.abs (direct.Solution.objective -. pre.Solution.objective)
            < 1e-5 *. (1.0 +. Float.abs direct.Solution.objective))
      &&
      (* restored points must be feasible for the original model *)
      let std = Std_form.of_model m in
      Array.for_all
        (fun v -> v <= 1e-6)
        (Lp_helpers.residuals std pre.Solution.values))

(* ---------- non-finite input ---------- *)

(* An infinite right-hand side used to reach both solvers and trip their
   phase-1 assertions; the model now rejects it, and NaN, when the row is
   posted, and a non-finite objective constant likewise. *)
let test_non_finite_rejected () =
  let expect label msg f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument m -> Alcotest.(check string) label msg m
  in
  let rhs_msg = "Model: non-finite right-hand side" in
  List.iter
    (fun (label, sense, b) ->
      let repro solve () =
        let m = Model.create () in
        let x = Model.add_var m in
        Model.minimize m [ (1.0, x) ];
        ignore (Model.add_constraint m [ (1.0, x) ] sense b);
        solve m
      in
      expect ("revised: " ^ label) rhs_msg (repro Revised_simplex.solve);
      expect ("dense: " ^ label) rhs_msg (repro Dense_simplex.solve))
    [ ("x = inf", Model.Eq, infinity);
      ("x >= inf", Model.Ge, infinity);
      ("x <= -inf", Model.Le, neg_infinity);
      ("x = nan", Model.Eq, nan);
    ];
  let m = Model.create () in
  let x = Model.add_var m in
  let const_msg = "Model: non-finite objective constant" in
  expect "minimize constant" const_msg (fun () ->
      Model.minimize m ~constant:infinity [ (1.0, x) ]);
  expect "maximize constant" const_msg (fun () ->
      Model.maximize m ~constant:nan [ (1.0, x) ])

let test_lp_io_rejects_non_finite () =
  List.iter
    (fun (text, expected) ->
      match Lp_io.of_string text with
      | _ -> Alcotest.failf "expected Failure %S" expected
      | exception Failure msg -> Alcotest.(check string) "message" expected msg)
    [ ( "Minimize\n obj: x\nSubject To\n c1: x = 1e400\nEnd\n",
        "line 4: Model: non-finite right-hand side" );
      ( "Minimize\n obj: 1e400 x\nEnd\n",
        "line 2: Model: non-finite coefficient" );
    ]

(* ---------- pinned solver behaviour ---------- *)

(* Every bit a solve reports: status, objective, effort counters, values,
   duals and exported basis.  Float fields are written as their IEEE bit
   patterns, so any changed pivot or factor changes the digest. *)
let add_bits buf x = Buffer.add_string buf (Printf.sprintf "%Lx," (Int64.bits_of_float x))

let add_solution buf (s : Solution.t) =
  Buffer.add_string buf (status s);
  Buffer.add_char buf ':';
  add_bits buf s.Solution.objective;
  Buffer.add_string buf
    (Printf.sprintf "%d,%d;" s.Solution.iterations s.Solution.refactors);
  Array.iter (add_bits buf) s.Solution.values;
  Buffer.add_char buf ';';
  (match s.Solution.duals with
  | None -> Buffer.add_char buf '-'
  | Some y -> Array.iter (add_bits buf) y);
  Buffer.add_char buf ';';
  (match s.Solution.basis with
  | None -> Buffer.add_char buf '-'
  | Some b -> Array.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%d," c)) b);
  Buffer.add_char buf '\n'

(* Random LPs for the digest: Le, Ge and Eq rows with duplicate, cancelling
   and shuffled terms, empty rows, optional boxes, min or max objectives
   with a constant. *)
let digest_lp st =
  let nvars = 1 + Random.State.int st 7 in
  let nrows = 1 + Random.State.int st 7 in
  let m = Model.create () in
  let xs = Lp_helpers.add_vars m nvars in
  let coeff () = float_of_int (Random.State.int st 9 - 4) in
  let shuffle l =
    List.map (fun t -> (Random.State.bits st, t)) l
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  for _ = 1 to nrows do
    let expr =
      if Random.State.int st 10 = 0 then []
      else
        Array.to_list xs
        |> List.concat_map (fun v ->
               match Random.State.int st 10 with
               | 0 | 1 | 2 -> []
               | 3 -> [ (coeff (), v); (coeff (), v) ]
               | 4 ->
                 let c = float_of_int (1 + Random.State.int st 4) in
                 [ (c, v); (-.c, v) ]
               | _ -> [ (coeff (), v) ])
        |> shuffle
    in
    let sense =
      match Random.State.int st 10 with
      | 0 | 1 | 2 | 3 | 4 -> Model.Le
      | 5 | 6 | 7 -> Model.Ge
      | _ -> Model.Eq
    in
    let b = float_of_int (Random.State.int st 18 - 3) in
    ignore (Model.add_constraint m expr sense b)
  done;
  Array.iter
    (fun v ->
      if Random.State.int st 4 > 0 then
        ignore
          (Model.add_constraint m [ (1.0, v) ] Model.Le
             (float_of_int (1 + Random.State.int st 10))))
    xs;
  let obj =
    Array.to_list xs
    |> List.concat_map (fun v ->
           if Random.State.int st 5 = 0 then [ (coeff (), v); (coeff (), v) ]
           else [ (coeff (), v) ])
    |> shuffle
  in
  let constant = float_of_int (Random.State.int st 7 - 3) in
  if Random.State.bool st then Model.maximize m ~constant obj
  else Model.minimize m ~constant obj;
  m

let solve_digest buf f =
  match f () with
  | s -> add_solution buf s
  | exception Failure msg -> Buffer.add_string buf ("F:" ^ msg ^ "\n")
  | exception Invalid_argument msg -> Buffer.add_string buf ("I:" ^ msg ^ "\n")

let random_lp_digest ~cases =
  let st = Random.State.make [| 0xD16E57; 18 |] in
  let buf = Buffer.create 65536 in
  for _ = 1 to cases do
    let m = digest_lp st in
    let refactor = 1 + Random.State.int st 6 in
    let cold = ref None in
    solve_digest buf (fun () ->
        let s = Revised_simplex.solve ~refactor m in
        cold := Some s;
        s);
    (* warm restarts: from the exported basis, and from a random proposal
       that is often singular or infeasible *)
    (match !cold with
    | Some { Solution.basis = Some wb; _ } ->
      solve_digest buf (fun () -> Revised_simplex.solve ~refactor ~warm_basis:wb m)
    | _ -> ());
    let proposal =
      Array.init (Model.num_constraints m) (fun _ ->
          Random.State.int st (Model.num_vars m + 1) - 1)
    in
    solve_digest buf (fun () ->
        Revised_simplex.solve ~refactor ~warm_basis:proposal m)
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* A warm-started chain of interval relaxations shaped like the service's
   epochs: 8 ports and a handful of live coflows; every step re-solves from
   the previous solve's hints (remapped by coflow id, shifted by one slot),
   then serves part of each coflow's demand and admits new arrivals. *)
let relax_chain_digest ~steps =
  let open Workload in
  let st = Random.State.make [| 0x50AC; 18 |] in
  let ports = 8 in
  let next_id = ref 0 in
  let fresh () =
    let id = !next_id in
    incr next_id;
    { Instance.id;
      release = Random.State.int st 3;
      demand = Matrix.Mat.random ~density:0.2 ~max_entry:4 st ports;
      weight = float_of_int (1 + Random.State.int st 4);
    }
  in
  let live = ref [ fresh (); fresh (); fresh () ] in
  let warm = ref None in
  let buf = Buffer.create 65536 in
  for _ = 1 to steps do
    if !live = [] || Random.State.int st 3 = 0 then live := !live @ [ fresh () ];
    let inst = Instance.make ~ports !live in
    let ids = Array.map (fun c -> c.Instance.id) (Instance.coflows inst) in
    let index_of gid =
      let r = ref None in
      Array.iteri (fun i id -> if id = gid then r := Some i) ids;
      !r
    in
    let warm_start =
      Option.map (Core.Lp_relax.remap_hints ~index_map:index_of ~time_shift:1.0)
        !warm
    in
    let r = Core.Lp_relax.solve_interval ?warm_start inst in
    Array.iter (add_bits buf) r.Core.Lp_relax.cbar;
    Buffer.add_char buf ';';
    add_bits buf r.Core.Lp_relax.lower_bound;
    Buffer.add_string buf
      (Printf.sprintf "%d,%d\n" r.Core.Lp_relax.iterations
         r.Core.Lp_relax.refactors);
    warm :=
      Option.map
        (Core.Lp_relax.remap_hints ~index_map:(fun i -> Some ids.(i)))
        r.Core.Lp_relax.warm;
    (* one slot passes: releases move up, up to two units of each coflow
       are served, finished coflows leave *)
    live :=
      List.filter_map
        (fun c ->
          let d = Matrix.Mat.copy c.Instance.demand in
          for _ = 1 to 2 do
            let nz = ref [] in
            Matrix.Mat.iter_nonzero (fun i j _ -> nz := (i, j) :: !nz) d;
            match !nz with
            | [] -> ()
            | l ->
              let i, j = List.nth l (Random.State.int st (List.length l)) in
              Matrix.Mat.set d i j (Matrix.Mat.get d i j - 1)
          done;
          if Matrix.Mat.is_zero d then None
          else
            Some
              { c with
                Instance.release = max 0 (c.Instance.release - 1);
                demand = d;
              })
        !live
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* The expected digests come from the solver whose LU kept its active
   submatrix in hash tables; any storage of the factorization must
   reproduce them bit for bit. *)
let test_random_lp_digest () =
  Alcotest.(check string) "3,000 random LPs, cold and warm" "0795712d94589ab8a0b3727e0f82c330"
    (random_lp_digest ~cases:3000)

let test_relax_chain_digest () =
  Alcotest.(check string) "400 warm-started relaxations" "7d90724659976f5f21d0ce204f223901"
    (relax_chain_digest ~steps:400)

(* Names are rendered on demand: explicit names verbatim, defaults as x<i>
   for variables and c<r> for rows, by every printer. *)
let named_model () =
  let m = Model.create ~name:"named" () in
  let a = Model.add_var ~name:"alpha" m and b = Model.add_var ~name:"beta" m in
  ignore (Model.add_constraint ~name:"cap" m [ (2.0, a); (1.0, b) ] Model.Le 8.0);
  ignore (Model.add_constraint ~name:"floor" m [ (1.0, a) ] Model.Ge 1.0);
  Model.maximize m ~constant:3.0 [ (1.0, a); (-2.5, b) ];
  m

let unnamed_model () =
  let m = Model.create () in
  let xs = Lp_helpers.add_vars m 3 in
  ignore (Model.add_constraint m [ (1.0, xs.(0)); (-1.0, xs.(2)) ] Model.Eq 0.0);
  ignore (Model.add_constraint m [] Model.Le 4.0);
  ignore (Model.add_constraint m [ (0.5, xs.(1)); (0.5, xs.(1)) ] Model.Ge (-2.0));
  Model.minimize m [ (1.0, xs.(0)); (1.0, xs.(1)); (1.0, xs.(2)) ];
  m

let mixed_model () =
  let m = Model.create ~name:"mixed" () in
  let x0 = Model.add_var m in
  let y = Model.add_var ~name:"y" m in
  let x2 = Model.add_var m in
  ignore (Model.add_constraint m [ (1.0, x0); (3.0, y) ] Model.Le 9.0);
  ignore (Model.add_constraint ~name:"link" m [ (1.0, y); (-1.0, x2) ] Model.Eq 1.0);
  ignore (Model.add_constraint m [ (1.0, x2) ] Model.Ge 0.5);
  Model.minimize m [ (1.0, x0); (2.0, x2) ];
  m

let render m =
  let names =
    List.init (Model.num_vars m) (fun i -> Model.var_name m (Model.var_of_int m i))
  in
  String.concat "," names ^ "\n"
  ^ Format.asprintf "%a" Model.pp m
  ^ "\n" ^ Lp_io.to_string m

let test_names_rendered () =
  List.iter
    (fun (label, m, expected) ->
      Alcotest.(check string) label expected (render (m ())))
    [ ( "named",
        named_model,
        "alpha,beta\n\
       max: 1 alpha + -2.5 beta + 3\n\
       cap: 2 alpha + 1 beta <= 8\n\
       floor: 1 alpha >= 1\n\
       \\ named (written by coflow-sched lp_io)\n\
       Maximize\n\
      \ obj: alpha - 2.5 beta + 3 const_one\n\
       Subject To\n\
      \ c0: 2 alpha + beta <= 8\n\
      \ c1: alpha >= 1\n\
      \ c_const: const_one = 1\n\
       End\n" );
      ( "unnamed",
        unnamed_model,
        "x0,x1,x2\n\
       min: 1 x0 + 1 x1 + 1 x2\n\
       c0: 1 x0 + -1 x2 = 0\n\
       c1: 0 <= 4\n\
       c2: 0.5 x1 + 0.5 x1 >= -2\n\
       \\ lp (written by coflow-sched lp_io)\n\
       Minimize\n\
      \ obj: x0 + x1 + x2\n\
       Subject To\n\
      \ c0: x0 - x2 = 0\n\
      \ c1: 0 x_unused <= 4\n\
      \ c2: 0.5 x1 + 0.5 x1 >= -2\n\
       End\n" );
      ( "mixed",
        mixed_model,
        "x0,y,x2\n\
       min: 1 x0 + 2 x2\n\
       c0: 1 x0 + 3 y <= 9\n\
       link: 1 y + -1 x2 = 1\n\
       c2: 1 x2 >= 0.5\n\
       \\ mixed (written by coflow-sched lp_io)\n\
       Minimize\n\
      \ obj: x0 + 2 x2\n\
       Subject To\n\
      \ c0: x0 + 3 y <= 9\n\
      \ c1: y - x2 = 1\n\
      \ c2: x2 >= 0.5\n\
       End\n" );
    ]

(* A warm re-solve of a soak-sized relaxation (8 ports, 3 coflows) costs
   what its pivots cost: no per-variable names, no per-row tables. *)
let test_warm_resolve_allocation () =
  let inst =
    Workload.Synthetic.uniform ~ports:8 ~coflows:3 ~density:0.3 ~max_size:4
      (Random.State.make [| 18 |])
  in
  let cold = Core.Lp_relax.solve_interval inst in
  let hints = Option.get cold.Core.Lp_relax.warm in
  ignore (Core.Lp_relax.solve_interval ~warm_start:hints inst);
  let before = Gc.minor_words () in
  let warm = Core.Lp_relax.solve_interval ~warm_start:hints inst in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 1e-9)) "same bound" cold.Core.Lp_relax.lower_bound
    warm.Core.Lp_relax.lower_bound;
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words <= 10,000" words)
    true (words <= 10_000.0)

(* The lowering [Std_form.of_model] used before it became linear: a hash
   table merges each row's duplicate terms, then every column is sorted.
   Kept as the oracle the linear lowering must match bit for bit. *)
let oracle_of_model m =
  let ncols = Model.num_vars m in
  let nrows = Model.num_constraints m in
  let cols = Array.make ncols [] in
  let rhs = Array.make nrows 0.0 in
  let senses = Array.make nrows Std_form.Eq in
  for r = 0 to nrows - 1 do
    let expr, s, b = Model.constraint_row m r in
    rhs.(r) <- b;
    senses.(r) <-
      (match s with
      | Model.Le -> Std_form.Le
      | Model.Ge -> Std_form.Ge
      | Model.Eq -> Std_form.Eq);
    let tbl = Hashtbl.create (List.length expr) in
    List.iter
      (fun (c, v) ->
        let v = (v : Model.var :> int) in
        let prev = try Hashtbl.find tbl v with Not_found -> 0.0 in
        Hashtbl.replace tbl v (prev +. c))
      expr;
    Hashtbl.iter (fun v c -> if c <> 0.0 then cols.(v) <- (r, c) :: cols.(v)) tbl
  done;
  let col_rows = Array.make ncols [||] in
  let col_vals = Array.make ncols [||] in
  for v = 0 to ncols - 1 do
    let entries = List.sort compare cols.(v) in
    col_rows.(v) <- Array.of_list (List.map fst entries);
    col_vals.(v) <- Array.of_list (List.map snd entries)
  done;
  let dir, obj_expr, obj_const = Model.objective m in
  let maximize = dir = `Maximize in
  let obj = Array.make ncols 0.0 in
  List.iter
    (fun (c, v) ->
      let v = (v : Model.var :> int) in
      obj.(v) <- obj.(v) +. (if maximize then -.c else c))
    obj_expr;
  let obj_const = if maximize then -.obj_const else obj_const in
  { Std_form.nrows; ncols; col_rows; col_vals; obj; obj_const; rhs; senses;
    maximize }

(* Models whose rows repeat, cancel and reorder terms, with fractional
   coefficients so that the summation order shows in the bits. *)
let lowering_model (nvars, nrows, seed) =
  let st = Random.State.make [| seed; 18 |] in
  let m = Model.create () in
  let xs = Lp_helpers.add_vars m nvars in
  let coeff () =
    match Random.State.int st 3 with
    | 0 -> float_of_int (Random.State.int st 7 - 3)
    | 1 -> Random.State.float st 2.0 -. 1.0
    | _ -> 0.1 *. float_of_int (Random.State.int st 9 - 4)
  in
  let term () = (coeff (), xs.(Random.State.int st nvars)) in
  for _ = 1 to nrows do
    let expr =
      List.concat
        (List.init (Random.State.int st 9) (fun _ ->
             match Random.State.int st 4 with
             | 0 ->
               let c, v = term () in
               [ (c, v); (-.c, v) ]
             | _ -> [ term () ]))
    in
    let sense =
      match Random.State.int st 3 with
      | 0 -> Model.Le
      | 1 -> Model.Ge
      | _ -> Model.Eq
    in
    ignore (Model.add_constraint m expr sense (Random.State.float st 20.0 -. 5.0))
  done;
  let obj = List.init (Random.State.int st 8) (fun _ -> term ()) in
  let constant = Random.State.float st 4.0 -. 2.0 in
  if Random.State.bool st then Model.maximize m ~constant obj
  else Model.minimize m ~constant obj;
  m

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

let std_equal (a : Std_form.t) (b : Std_form.t) =
  a.Std_form.nrows = b.Std_form.nrows
  && a.Std_form.ncols = b.Std_form.ncols
  && a.Std_form.col_rows = b.Std_form.col_rows
  && Array.length a.Std_form.col_vals = Array.length b.Std_form.col_vals
  && Array.for_all2 bits_equal a.Std_form.col_vals b.Std_form.col_vals
  && bits_equal a.Std_form.obj b.Std_form.obj
  && bits_equal [| a.Std_form.obj_const |] [| b.Std_form.obj_const |]
  && bits_equal a.Std_form.rhs b.Std_form.rhs
  && a.Std_form.senses = b.Std_form.senses
  && a.Std_form.maximize = b.Std_form.maximize

let prop_lowering_matches_oracle =
  QCheck.Test.make ~name:"linear lowering = hash-table oracle" ~count:300
    (QCheck.make
       ~print:(fun (a, b, c) -> Printf.sprintf "(%d,%d,%d)" a b c)
       QCheck.Gen.(triple (int_range 1 8) (int_range 0 8) (int_range 0 1_000_000)))
    (fun params ->
      let m = lowering_model params in
      std_equal (Std_form.of_model m) (oracle_of_model m))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_dense_eq_revised;
      prop_solutions_feasible;
      prop_lp_io_roundtrip;
      prop_presolve_preserves_optimum;
      prop_strong_duality;
      prop_complementary_slackness;
      prop_lowering_matches_oracle;
    ]

let () =
  Alcotest.run "lp"
    [ ( "simplex",
        [ Alcotest.test_case "wyndor max" `Quick test_wyndor;
          Alcotest.test_case "min with >=" `Quick test_minimization_with_ge;
          Alcotest.test_case "equality rows" `Quick test_equality;
          Alcotest.test_case "infeasible" `Quick test_infeasible;
          Alcotest.test_case "unbounded" `Quick test_unbounded;
          Alcotest.test_case "degenerate" `Quick test_degenerate;
          Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
          Alcotest.test_case "duplicate terms" `Quick
            test_duplicate_terms_merged;
          Alcotest.test_case "objective constant" `Quick
            test_objective_constant;
          Alcotest.test_case "zero objective" `Quick
            test_zero_objective_feasibility;
          Alcotest.test_case "warm basis accepted" `Quick test_warm_basis_used;
          Alcotest.test_case "warm basis rejected" `Quick
            test_warm_basis_rejected_falls_back;
          Alcotest.test_case "warm basis singular" `Quick
            test_warm_basis_singular_falls_back;
          Alcotest.test_case "redundant equalities" `Quick
            test_redundant_equality_rows;
          Alcotest.test_case "residuals" `Quick test_residuals;
          Alcotest.test_case "iteration limit" `Quick test_iteration_limit;
          Alcotest.test_case "zero deadline trips first check" `Quick
            test_deadline_zero_trips_first_check;
          Alcotest.test_case "duals (wyndor)" `Quick test_duals_wyndor;
          Alcotest.test_case "presolve singletons" `Quick
            test_presolve_fixes_singletons;
          Alcotest.test_case "presolve negative fix" `Quick
            test_presolve_detects_negative_fix;
          Alcotest.test_case "presolve conflicting" `Quick
            test_presolve_conflicting_fixes;
          Alcotest.test_case "presolve unbounded" `Quick
            test_presolve_unbounded_free_column;
          Alcotest.test_case "presolve dedup" `Quick
            test_presolve_drops_empty_and_duplicates;
          Alcotest.test_case "presolve contradiction" `Quick
            test_presolve_contradictory_empty_row;
          Alcotest.test_case "lp_io roundtrip" `Quick
            test_lp_io_roundtrip_wyndor;
          Alcotest.test_case "lp_io handwritten" `Quick
            test_lp_io_parse_handwritten;
          Alcotest.test_case "lp_io negatives" `Quick
            test_lp_io_negative_rhs_and_coeffs;
          Alcotest.test_case "lp_io rejects garbage" `Quick
            test_lp_io_rejects_garbage;
          Alcotest.test_case "lp_io file roundtrip" `Quick
            test_lp_io_file_roundtrip;
          Alcotest.test_case "pp smoke" `Quick test_pp_smoke;
          Alcotest.test_case "cross-check vs dense (200 seeded)" `Quick
            test_cross_check_suite;
          Alcotest.test_case "refactor threshold" `Quick
            test_refactor_threshold;
          Alcotest.test_case "random LP digest" `Quick test_random_lp_digest;
          Alcotest.test_case "relaxation chain digest" `Quick
            test_relax_chain_digest;
          Alcotest.test_case "names rendered" `Quick test_names_rendered;
          Alcotest.test_case "warm re-solve allocation" `Quick
            test_warm_resolve_allocation;
          Alcotest.test_case "non-finite input rejected" `Quick
            test_non_finite_rejected;
          Alcotest.test_case "lp_io non-finite numbers" `Quick
            test_lp_io_rejects_non_finite;
        ] );
      ("properties", properties);
    ]

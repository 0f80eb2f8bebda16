open Core

type row = {
  base : float;
  intervals : int;
  iterations : int;
  refactors : int;
  solve_seconds : float;
  lower_bound : float;
  twct : float;
}

let default_bases = [ 1.2; 1.5; 2.0; 3.0; 4.0 ]

let workload cfg =
  Harness.random_weights cfg ~salt:0x96D (Harness.first_filter cfg)

let run ?(jobs = 1) ?(bases = default_bases) cfg =
  let inst = workload cfg in
  (* Each base is an independent cold solve: no warm-start chaining across
     bases, so the rows are a pure function of (instance, base) and the
     sweep parallelizes with identical output at any job count. *)
  Engine.run_many ~jobs
  @@ List.map
       (fun base () ->
         let lp, solve_seconds =
           Obs.Span.timed "lp_grid.solve" (fun () ->
               Lp_relax.solve_interval_base ~base inst)
         in
         let intervals =
           (* distinct grid levels actually used by the solution encoding *)
           List.fold_left (fun acc (_, l, _) -> max acc l) 0 lp.Lp_relax.values
         in
         let order = Ordering.by_lp lp in
         let sched = Scheduler.run ~case:Scheduler.Group_backfill inst order in
         { base;
           intervals;
           iterations = lp.Lp_relax.iterations;
           refactors = lp.Lp_relax.refactors;
           solve_seconds;
           lower_bound = lp.Lp_relax.lower_bound;
           twct = sched.Scheduler.twct;
         })
       bases

let render ?jobs ?bases cfg =
  let rows = run ?jobs ?bases cfg in
  Report.table
    ~title:
      "LP-grid ablation: tighter interval grids vs the paper's powers of \
       two (base 2); ordering fed into grouping+backfilling"
    ~header:
      [ "grid base"; "intervals used"; "simplex pivots"; "refactors";
        "solve (s)"; "LP lower bound"; "TWCT (case d)";
      ]
    (List.map
       (fun r ->
         [ Report.f2 r.base;
           string_of_int r.intervals;
           string_of_int r.iterations;
           string_of_int r.refactors;
           Report.f2 r.solve_seconds;
           Report.f2 r.lower_bound;
           Report.f2 r.twct;
         ])
       rows)

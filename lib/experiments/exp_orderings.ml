open Core

type row = { algo : string; twct : float; slots : int; lp_ratio : float }

let run (b : Harness.block) =
  let leg = b.Harness.leg in
  let inst = leg.Arena.spec.Arena.inst in
  let bound = leg.Arena.spec.Arena.bound in
  let ratio v = if bound > 0.0 then v /. bound else infinity in
  let of_result name (r : Scheduler.result) =
    { algo = name;
      twct = r.Scheduler.twct;
      slots = r.Scheduler.slots;
      lp_ratio = ratio r.Scheduler.twct;
    }
  in
  let of_block name order =
    let r = Arena.row leg (Arena.grid_algo order Scheduler.Group_backfill) in
    { algo = name;
      twct = r.Arena.twct;
      slots = r.Arena.slots;
      lp_ratio = ratio r.Arena.twct;
    }
  in
  let case_d order = Scheduler.run ~case:Scheduler.Group_backfill inst order in
  [ of_block "H_A (trace order)" "H_A";
    of_result "H_size (bytes/weight)" (case_d (Ordering.by_total_size inst));
    of_block "H_rho (load/weight)" "H_rho";
    of_result "H_pd (primal-dual, LP-free)" (case_d (Primal_dual.order inst));
    of_block "H_LP (interval LP)" "H_LP";
    of_result "SEBF + MADD (Varys-style, rate-based)"
      (Baselines.sebf_madd inst);
    of_result "MaxWeight matching (switch-theoretic)"
      (Baselines.max_weight inst);
    of_result "FIFO greedy" (Baselines.fifo inst);
  ]

let render blocks =
  let b = Exp_fig2a.pick_block blocks in
  let rows = run b in
  Report.table
    ~title:
      (Printf.sprintf
         "Ordering portfolio under grouping+backfilling (M0 >= %d, random \
          weights); ratios vs the LP lower bound"
         b.Harness.filter)
    ~header:[ "algorithm"; "TWCT"; "makespan"; "TWCT / LP bound" ]
    (List.map
       (fun r ->
         [ r.algo; Report.f2 r.twct; string_of_int r.slots;
           Report.f2 r.lp_ratio;
         ])
       rows)

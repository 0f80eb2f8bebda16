open Matrix
open Workload
open Core

type row = {
  noise : float;
  twct_hrho : float;
  twct_hlp : float;
  degradation_hrho : float;
  degradation_hlp : float;
}

let perturb st noise inst =
  if noise <= 0.0 then inst
  else begin
    let lo = 1.0 /. (1.0 +. noise) and hi = 1.0 +. noise in
    let coflows =
      Array.to_list (Instance.coflows inst)
      |> List.map (fun c ->
             let demand =
               Mat.map
                 (fun v ->
                   if v = 0 then 0
                   else begin
                     let f = lo +. Random.State.float st (hi -. lo) in
                     max 1 (int_of_float (Float.round (f *. float_of_int v)))
                   end)
                 c.Instance.demand
             in
             { c with Instance.demand })
    in
    Instance.make ~ports:(Instance.ports inst) coflows
  end

let schedule_with_estimates inst estimated order_of =
  (* order and classes from the estimate; execution on the truth *)
  let order = order_of estimated in
  let groups = Grouping.deterministic estimated order in
  (Scheduler.run_grouped ~backfill:true inst groups).Scheduler.twct

let run ?(noise_levels = [ 0.0; 0.5; 1.0; 3.0 ]) (cfg : Config.t) =
  let inst = Harness.random_weights cfg ~salt:0x0B5 (Harness.first_filter cfg) in
  let hrho estimated = Ordering.by_load_over_weight estimated in
  let hlp estimated = Ordering.by_lp (Lp_relax.solve_interval estimated) in
  let base_hrho = schedule_with_estimates inst inst hrho in
  let base_hlp = schedule_with_estimates inst inst hlp in
  List.map
    (fun noise ->
      let st = Random.State.make [| cfg.Config.seed; 0x0B6 |] in
      let estimated = perturb st noise inst in
      let twct_hrho = schedule_with_estimates inst estimated hrho in
      let twct_hlp = schedule_with_estimates inst estimated hlp in
      { noise;
        twct_hrho;
        twct_hlp;
        degradation_hrho = twct_hrho /. base_hrho;
        degradation_hlp = twct_hlp /. base_hlp;
      })
    noise_levels

let render ?noise_levels cfg =
  let rows = run ?noise_levels cfg in
  Report.table
    ~title:
      "Demand-uncertainty study: ordering computed from noisy estimates, \
       execution charged with true demands (grouping+backfilling)"
    ~header:
      [ "noise level"; "TWCT H_rho"; "vs exact"; "TWCT H_LP"; "vs exact" ]
    (List.map
       (fun r ->
         [ Report.f2 r.noise;
           Report.f2 r.twct_hrho;
           Report.f2 r.degradation_hrho;
           Report.f2 r.twct_hlp;
           Report.f2 r.degradation_hlp;
         ])
       rows)

let machines = 10

let jobs = 40

let render (cfg : Config.t) =
  let st = Random.State.make [| cfg.Config.seed; 0x05 |] in
  let job id =
    { Openshop.id;
      weight = float_of_int (1 + Random.State.int st 9);
      release = 0;
      processing =
        Array.init machines (fun _ ->
            if Random.State.float st 1.0 < 0.4 then Random.State.int st 20
            else 0);
    }
  in
  let shop = Openshop.make ~machines (List.init jobs job) in
  let pd = Openshop.primal_dual_order shop in
  let lp = Openshop.lp_order shop in
  let coflow_run =
    Core.Scheduler.run ~case:Core.Scheduler.Group_backfill
      (Openshop.to_coflow_instance shop)
      lp
  in
  Report.table
    ~title:
      (Printf.sprintf "Diagonal-coflow equivalence, %d machines x %d jobs"
         machines jobs)
    ~header:[ "algorithm"; "TWCT" ]
    [ [ "primal-dual (2-approx) permutation";
        Report.f2 (Openshop.twct shop pd);
      ];
      [ "LP-ordered permutation"; Report.f2 (Openshop.twct shop lp) ];
      [ "LP-ordered coflow schedule (case d)";
        Report.f2 coflow_run.Core.Scheduler.twct;
      ];
      [ "single-machine WSPT lower bound";
        Report.f2 (Openshop.sum_load_lower_bound shop);
      ];
    ]

open Core

type result = {
  filter : int;
  weighting : Harness.weighting;
  deterministic : float;
  randomized_mean : float;
  randomized_std : float;
  samples : int;
}

let run (cfg : Config.t) blocks =
  let samples = cfg.Config.randomized_samples in
  List.map
    (fun b ->
      let order = Ordering.by_lp b.Harness.lp in
      let st = Random.State.make [| cfg.Config.seed; b.Harness.filter; 0xA11 |] in
      let mean, std =
        Randomized.expected_twct ~backfill:true ~samples st
          b.Harness.leg.Arena.spec.Arena.inst order
      in
      { filter = b.Harness.filter;
        weighting = b.Harness.weighting;
        deterministic = Exp_table1.twct b "H_LP" Scheduler.Group_backfill;
        randomized_mean = mean;
        randomized_std = std;
        samples;
      })
    blocks

let render cfg blocks =
  let results = run cfg blocks in
  Report.table
    ~title:"Randomized (a = 1 + sqrt 2 shifted classes) vs deterministic \
            grouping, HLP order with backfilling"
    ~header:
      [ "M0 >="; "weights"; "deterministic"; "randomized mean"; "std";
        "samples";
      ]
    (List.map
       (fun r ->
         [ string_of_int r.filter;
           Harness.weighting_name r.weighting;
           Report.f2 r.deterministic;
           Report.f2 r.randomized_mean;
           Report.f2 r.randomized_std;
           string_of_int r.samples;
         ])
       results)

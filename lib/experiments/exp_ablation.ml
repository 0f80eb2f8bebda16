open Core

type row = {
  filter : int;
  weighting : Harness.weighting;
  base : float;
  grouped : float;
  backfilled : float;
  work_conserving : float;
}

let rows blocks =
  List.map
    (fun b ->
      let inst = b.Harness.leg.Arena.spec.Arena.inst in
      let order = Ordering.by_lp b.Harness.lp in
      let groups = Grouping.deterministic inst order in
      let wc =
        Scheduler.run_grouped ~backfill:true ~aggressive:true inst groups
      in
      { filter = b.Harness.filter;
        weighting = b.Harness.weighting;
        base = Exp_table1.twct b "H_LP" Scheduler.Base;
        grouped = Exp_table1.twct b "H_LP" Scheduler.Group;
        backfilled = Exp_table1.twct b "H_LP" Scheduler.Group_backfill;
        work_conserving = wc.Scheduler.twct;
      })
    blocks

let render blocks =
  let rs = rows blocks in
  Report.table
    ~title:
      "Ablation (H_LP order): grouping, backfilling, and this repo's \
       work-conserving extension (TWCT as % of case (a))"
    ~header:
      [ "M0 >="; "weights"; "(a) base"; "(c) group"; "(d) group+bf";
        "(d)+work-conserving";
      ]
    (List.map
       (fun r ->
         [ string_of_int r.filter;
           Harness.weighting_name r.weighting;
           Report.pct 1.0;
           Report.pct (r.grouped /. r.base);
           Report.pct (r.backfilled /. r.base);
           Report.pct (r.work_conserving /. r.base);
         ])
       rs)

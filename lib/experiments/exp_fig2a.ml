open Core

type series = {
  order_name : string;
  percentages : (Scheduler.case * float) list;
}

let series_of_block block =
  List.map
    (fun (order_name, order) ->
      let base = Exp_table1.twct block order Scheduler.Base in
      { order_name;
        percentages =
          List.map
            (fun case -> (case, Exp_table1.twct block order case /. base))
            Scheduler.all_cases;
      })
    Exp_table1.orders

let pick_block blocks =
  let max_filter =
    List.fold_left (fun acc b -> max acc b.Harness.filter) 0 blocks
  in
  List.find
    (fun b ->
      b.Harness.filter = max_filter && b.Harness.weighting = Harness.Random)
    blocks

let render blocks =
  let block = pick_block blocks in
  let series = series_of_block block in
  let header =
    "order"
    :: List.map
         (fun c -> "case " ^ Scheduler.case_name c)
         Scheduler.all_cases
  in
  let rows =
    List.map
      (fun s ->
        s.order_name :: List.map (fun (_, v) -> Report.pct v) s.percentages)
      series
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Figure 2a: TWCT relative to the base case (M0 >= %d, random \
          weights)"
         block.Harness.filter)
    ~header rows

let csv blocks =
  let block = pick_block blocks in
  let series = series_of_block block in
  let header =
    "order"
    :: List.map (fun c -> Scheduler.case_name c) Scheduler.all_cases
  in
  Report.csv ~header
    (List.map
       (fun s ->
         s.order_name
         :: List.map (fun (_, v) -> Report.f4 v) s.percentages)
       series)

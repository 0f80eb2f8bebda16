open Core

type point = {
  order_name : string;
  weighting : Harness.weighting;
  normalized : float;
}

let points blocks =
  let max_filter =
    List.fold_left (fun acc b -> max acc b.Harness.filter) 0 blocks
  in
  let relevant =
    List.filter (fun b -> b.Harness.filter = max_filter) blocks
  in
  List.concat_map
    (fun b ->
      List.map
        (fun (order_name, order) ->
          { order_name;
            weighting = b.Harness.weighting;
            normalized = Exp_table1.normalized b order Scheduler.Group_backfill;
          })
        Exp_table1.orders)
    relevant

let render blocks =
  let pts = points blocks in
  let max_filter =
    List.fold_left (fun acc b -> max acc b.Harness.filter) 0 blocks
  in
  let row order =
    let get w =
      match
        List.find_opt
          (fun p -> p.order_name = order && p.weighting = w)
          pts
      with
      | Some p -> Report.f2 p.normalized
      | None -> "-"
    in
    [ order; get Harness.Equal; get Harness.Random ]
  in
  Report.table
    ~title:
      (Printf.sprintf
         "Figure 2b: normalized TWCT under grouping+backfilling (case d), \
          M0 >= %d"
         max_filter)
    ~header:[ "order"; "equal weights"; "random weights" ]
    (List.map (fun (label, _) -> row label) Exp_table1.orders)

let csv blocks =
  let pts = points blocks in
  Report.csv
    ~header:[ "order"; "weighting"; "normalized" ]
    (List.map
       (fun p ->
         [ p.order_name;
           Harness.weighting_name p.weighting;
           Report.f4 p.normalized;
         ])
       pts)

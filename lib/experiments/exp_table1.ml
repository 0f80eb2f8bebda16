open Core

type row = {
  filter : int;
  case : Scheduler.case;
  equal_w : (string * float) list;
  random_w : (string * float) list;
}

let orders = [ ("HA", "H_A"); ("Hrho", "H_rho"); ("HLP", "H_LP") ]

let twct (b : Harness.block) order case =
  (Arena.row b.Harness.leg (Arena.grid_algo order case)).Arena.twct

let normalized b order case =
  twct b order case /. twct b "H_LP" Scheduler.Group_backfill

let normals block case =
  List.map (fun (label, order) -> (label, normalized block order case)) orders

let rows blocks =
  let filters =
    List.sort_uniq compare (List.map (fun b -> b.Harness.filter) blocks)
    |> List.rev (* largest threshold first, like the paper *)
  in
  List.concat_map
    (fun filter ->
      let pick w =
        List.find
          (fun b -> b.Harness.filter = filter && b.Harness.weighting = w)
          blocks
      in
      let eq = pick Harness.Equal and rnd = pick Harness.Random in
      List.map
        (fun case ->
          { filter;
            case;
            equal_w = normals eq case;
            random_w = normals rnd case;
          })
        Scheduler.all_cases)
    filters

let header =
  [ "M0 >="; "case" ]
  @ List.map (fun (o, _) -> o ^ " (eq)") orders
  @ List.map (fun (o, _) -> o ^ " (rnd)") orders

let row_cells r =
  [ string_of_int r.filter; Scheduler.case_name r.case ]
  @ List.map (fun (_, v) -> Report.f2 v) r.equal_w
  @ List.map (fun (_, v) -> Report.f2 v) r.random_w

let render blocks =
  Report.table
    ~title:
      "Table 1: normalized total weighted completion times (per-block \
       normalization: HLP, case (d))"
    ~header
    (List.map row_cells (rows blocks))

let csv blocks = Report.csv ~header (List.map row_cells (rows blocks))

open Core

type block_audit = {
  filter : int;
  weighting : Harness.weighting;
  lemma2_ok : bool;
  lemma3_ok : bool;
  prop1_ok : bool;
  det_ratio : float;
  best_ratio : float;
  limit : float;
}

let audit_block (b : Harness.block) =
  let leg = b.Harness.leg in
  let holds suffix =
    List.for_all
      (fun (name, ok) -> ok || not (String.ends_with ~suffix name))
      leg.Arena.checks
  in
  let det = Arena.row leg (Arena.grid_algo "H_LP" Scheduler.Group) in
  { filter = b.Harness.filter;
    weighting = b.Harness.weighting;
    lemma2_ok = holds ": lemma2";
    lemma3_ok =
      Verify.lemma3_lp_bound leg.Arena.spec.Arena.inst b.Harness.lp = Ok ();
    prop1_ok = holds ": prop1";
    det_ratio = det.Arena.ratio;
    best_ratio = (List.hd leg.Arena.rows).Arena.ratio;
    limit = Option.get det.Arena.guarantee;
  }

let audit blocks = List.map audit_block blocks

let all_pass audits =
  List.for_all
    (fun a ->
      a.lemma2_ok && a.lemma3_ok && a.prop1_ok
      && a.det_ratio <= a.limit +. 1e-9)
    audits

let render blocks =
  let audits = audit blocks in
  let mark b = if b then "ok" else "VIOLATED" in
  let rows =
    List.map
      (fun a ->
        [ string_of_int a.filter;
          Harness.weighting_name a.weighting;
          mark a.lemma2_ok;
          mark a.lemma3_ok;
          mark a.prop1_ok;
          Report.f2 a.det_ratio;
          Report.f2 a.best_ratio;
          Report.f2 a.limit;
        ])
      audits
  in
  Report.table
    ~title:
      "Theory audit: paper inequalities on the experiment workload (ratios \
       are vs the certified LP lower bound)"
    ~header:
      [ "M0 >="; "weights"; "Lemma2"; "Lemma3"; "Prop1"; "det ratio";
        "best ratio"; "limit 64/3";
      ]
    rows

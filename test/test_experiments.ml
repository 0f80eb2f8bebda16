(* Tests for the experiment harness: report rendering, block computation,
   and the structural invariants of each regenerated table/figure. *)

open Experiments

let check_int = Alcotest.(check int)

(* A miniature configuration so the whole harness runs in well under a
   second. *)
let tiny_cfg =
  { Config.default with
    Config.ports = 8;
    coflows = 40;
    filters = [ 6; 3 ];
    lpexp_ports = 3;
    lpexp_coflows = 4;
    randomized_samples = 3;
    release_mean_gap = 10;
  }

let blocks = lazy (Harness.all_blocks tiny_cfg)

(* ---------- report ---------- *)

let test_table_render () =
  let s =
    Report.table ~title:"t" ~header:[ "a"; "b" ]
      [ [ "1"; "22" ]; [ "333"; "4" ] ]
  in
  Alcotest.(check bool) "has title" true (Astring.String.is_prefix ~affix:"t\n" s);
  Alcotest.(check bool) "has rule" true (Astring.String.is_infix ~affix:"+--" s);
  Alcotest.(check bool) "pads cells" true
    (Astring.String.is_infix ~affix:"| 1   |" s)

let test_table_ragged_rejected () =
  (try
     ignore (Report.table ~header:[ "a"; "b" ] [ [ "1" ] ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_csv () =
  let s = Report.csv ~header:[ "x"; "y" ] [ [ "a,b"; "c\"d" ] ] in
  Alcotest.(check string) "csv quoting" "x,y\n\"a,b\",\"c\"\"d\"\n" s

let test_formats () =
  Alcotest.(check string) "f2" "1.23" (Report.f2 1.2345);
  Alcotest.(check string) "f4" "1.2345" (Report.f4 1.2345);
  Alcotest.(check string) "pct" "50.00%" (Report.pct 0.5)

(* ---------- config ---------- *)

let test_scales () =
  Alcotest.(check bool) "quick" true
    (Config.scale_of_string "quick" = Some Config.Quick);
  Alcotest.(check bool) "default" true
    (Config.scale_of_string "default" = Some Config.Default);
  Alcotest.(check bool) "large" true
    (Config.scale_of_string "large" = Some Config.Large);
  Alcotest.(check bool) "unknown" true (Config.scale_of_string "?" = None);
  let q = Config.of_scale Config.Quick and l = Config.of_scale Config.Large in
  Alcotest.(check bool) "large is larger" true
    (l.Config.ports > q.Config.ports && l.Config.coflows > q.Config.coflows)

(* ---------- harness ---------- *)

let leg (b : Harness.block) = b.Harness.leg

let inst b = (leg b).Arena.spec.Arena.inst

let test_blocks_shape () =
  let bs = Lazy.force blocks in
  check_int "filters x weightings" 4 (List.length bs);
  List.iter
    (fun b ->
      check_int "12 rows" 12 (List.length (leg b).Arena.rows);
      Alcotest.(check bool) "instances non-empty" true
        (Workload.Instance.num_coflows (inst b) > 0))
    bs

let test_normalization_anchor () =
  let bs = Lazy.force blocks in
  List.iter
    (fun b ->
      Alcotest.(check (float 1e-9)) "HLP case d normalizes to 1"
        1.0
        (Exp_table1.normalized b "H_LP" Core.Scheduler.Group_backfill))
    bs

let test_lp_is_lower_bound_for_all_entries () =
  let bs = Lazy.force blocks in
  List.iter
    (fun b ->
      List.iter
        (fun (r : Arena.row) ->
          Alcotest.(check bool) "twct >= LP bound" true
            (r.Arena.twct >= b.Harness.lp.Core.Lp_relax.lower_bound -. 1e-6))
        (leg b).Arena.rows)
    bs

let test_dense_and_revised_order_identically () =
  (* acceptance criterion for the eta/LU core: on the E1 blocks the sparse
     revised solver must produce the same cbar ordering (and bound, within
     1e-6 relative) as the dense tableau oracle solving the same built
     relaxation *)
  let bs = Lazy.force blocks in
  List.iter
    (fun b ->
      Lp_helpers.check_oracle
        (Printf.sprintf "filter %d %s" b.Harness.filter
           (Harness.weighting_name b.Harness.weighting))
        (Core.Lp_relax.Interval 2.0) (inst b) b.Harness.lp)
    bs

let test_filter_removes_everything_rejected () =
  (try
     ignore (Harness.all_blocks { tiny_cfg with Config.filters = [ 10_000 ] });
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     Alcotest.(check bool) ("names the filter: " ^ msg) true
       (Astring.String.is_infix ~affix:"M0>=10000" msg))

let test_find_missing_names_the_pair () =
  let l = leg (List.hd (Lazy.force blocks)) in
  try
    ignore (Arena.row l (Arena.grid_algo "Hnope" Core.Scheduler.Base));
    Alcotest.fail "expected Failure"
  with Failure msg ->
    Alcotest.(check bool) "names the order and case" true
      (Astring.String.is_infix ~affix:{|"Hnope (a)"|} msg);
    Alcotest.(check bool) "names the leg" true
      (Astring.String.is_infix ~affix:l.Arena.spec.Arena.label msg)

let test_grid_checks () =
  (* every row reports Lemma 2, and the release-free blocks' grouped rows
     Proposition 1; H_LP (c) alone carries Theorem 1's factor *)
  List.iter
    (fun b ->
      let l = leg b in
      List.iter
        (fun (r : Arena.row) ->
          let algo = r.Arena.algo in
          let grouped =
            List.exists
              (fun affix -> Astring.String.is_suffix ~affix algo)
              [ "(c)"; "(d)" ]
          in
          Alcotest.(check (option bool)) (algo ^ " lemma2") (Some true)
            (List.assoc_opt (algo ^ ": lemma2") l.Arena.checks);
          Alcotest.(check (option bool)) (algo ^ " prop1")
            (if grouped then Some true else None)
            (List.assoc_opt (algo ^ ": prop1") l.Arena.checks);
          Alcotest.(check (option (float 0.0))) (algo ^ " guarantee")
            (if algo = "H_LP (c)" then Some (64.0 /. 3.0) else None)
            r.Arena.guarantee)
        l.Arena.rows;
      check_int "checks" (12 + 6) (List.length l.Arena.checks))
    (Lazy.force blocks)

let test_all_blocks_jobs_invariant () =
  (* the block list must be identical at any job count: same LP bounds,
     orders and pivots (the warm-start chaining stays within a filter);
     the arena JSON tests below cover the legs *)
  let seq = Lazy.force blocks in
  let par = Harness.all_blocks ~jobs:4 tiny_cfg in
  check_int "same block count" (List.length seq) (List.length par);
  List.iter2
    (fun (a : Harness.block) (b : Harness.block) ->
      check_int "filter" a.Harness.filter b.Harness.filter;
      Alcotest.(check (float 0.0)) "lp bound"
        a.Harness.lp.Core.Lp_relax.lower_bound
        b.Harness.lp.Core.Lp_relax.lower_bound;
      check_int "lp pivots" a.Harness.lp.Core.Lp_relax.iterations
        b.Harness.lp.Core.Lp_relax.iterations;
      Alcotest.(check (array int)) "lp order"
        a.Harness.lp.Core.Lp_relax.order b.Harness.lp.Core.Lp_relax.order)
    seq par

(* ---------- pinned block tables ---------- *)

(* Every table the (filter x weighting) blocks feed, rendered on
   [tiny_cfg] and folded into one MD5: a change to how the blocks are
   built, raced or read that moves a single cell of Table 1, Figures
   2a/2b, the audit, E6, E9 or E10 shows here. *)
let test_block_tables_pinned () =
  let bs = Lazy.force blocks in
  let outputs =
    [ Exp_table1.render bs; Exp_table1.csv bs; Exp_fig2a.render bs;
      Exp_fig2a.csv bs; Exp_fig2b.render bs; Exp_fig2b.csv bs;
      Exp_audit.render bs; Exp_randomized.render tiny_cfg bs;
      Exp_ablation.render bs; Exp_orderings.render bs;
    ]
  in
  Alcotest.(check string) "block tables digest"
    "0063e0a4f9a9a58d9e69937628ac0e95"
    (Digest.to_hex (Digest.string (String.concat "\x00" outputs)))

(* ---------- E1: Table 1 ---------- *)

let test_table1_rows () =
  let bs = Lazy.force blocks in
  let rows = Exp_table1.rows bs in
  check_int "filters x cases rows" (2 * 4) (List.length rows);
  List.iter
    (fun r ->
      check_int "three orders equal" 3 (List.length r.Exp_table1.equal_w);
      check_int "three orders random" 3 (List.length r.Exp_table1.random_w);
      List.iter
        (fun (_, v) ->
          Alcotest.(check bool) "normalized positive" true (v > 0.0))
        (r.Exp_table1.equal_w @ r.Exp_table1.random_w))
    rows;
  (* the anchor cell: HLP, case d, must be exactly 1 in every filter *)
  List.iter
    (fun r ->
      if r.Exp_table1.case = Core.Scheduler.Group_backfill then begin
        match List.assoc_opt "HLP" r.Exp_table1.equal_w with
        | Some v -> Alcotest.(check (float 1e-9)) "anchor" 1.0 v
        | None -> Alcotest.fail "HLP column missing"
      end)
    rows

let test_table1_renders () =
  let s = Exp_table1.render (Lazy.force blocks) in
  Alcotest.(check bool) "mentions HLP" true
    (Astring.String.is_infix ~affix:"HLP" s)

(* ---------- E2: Figure 2a ---------- *)

let test_fig2a_base_is_one () =
  let bs = Lazy.force blocks in
  let series = Exp_fig2a.series_of_block (Exp_fig2a.pick_block bs) in
  check_int "three series" 3 (List.length series);
  List.iter
    (fun s ->
      match List.assoc_opt Core.Scheduler.Base s.Exp_fig2a.percentages with
      | Some v -> Alcotest.(check (float 1e-9)) "base = 100%" 1.0 v
      | None -> Alcotest.fail "base case missing")
    series

let test_fig2a_improvements () =
  (* every non-base case should improve on the base case on this skewed
     workload *)
  let bs = Lazy.force blocks in
  let series = Exp_fig2a.series_of_block (Exp_fig2a.pick_block bs) in
  List.iter
    (fun s ->
      List.iter
        (fun (case, v) ->
          if case <> Core.Scheduler.Base then
            Alcotest.(check bool) "cases (b)-(d) at most base" true (v <= 1.0 +. 1e-9))
        s.Exp_fig2a.percentages)
    series

(* ---------- E3: Figure 2b ---------- *)

let test_fig2b_points () =
  let pts = Exp_fig2b.points (Lazy.force blocks) in
  check_int "3 orders x 2 weightings" 6 (List.length pts);
  List.iter
    (fun p ->
      Alcotest.(check bool) "positive" true (p.Exp_fig2b.normalized > 0.0))
    pts

(* ---------- E4: LP-EXP lower bound ---------- *)

let test_lower_bound_ordering () =
  let r = Exp_lower_bound.run tiny_cfg in
  Alcotest.(check bool) "LP-EXP at least LP" true
    (r.Exp_lower_bound.lpexp_bound >= r.Exp_lower_bound.lp_bound -. 1e-6);
  Alcotest.(check bool) "ratio at most 1" true
    (r.Exp_lower_bound.ratio <= 1.0 +. 1e-9);
  Alcotest.(check bool) "ratio positive" true (r.Exp_lower_bound.ratio > 0.0)

(* ---------- E5: audit ---------- *)

let test_audit_passes () =
  let audits = Exp_audit.audit (Lazy.force blocks) in
  Alcotest.(check bool) "all inequalities hold" true (Exp_audit.all_pass audits);
  List.iter
    (fun a ->
      Alcotest.(check bool) "det ratio sane" true
        (a.Exp_audit.det_ratio >= 1.0 -. 1e-9))
    audits

(* ---------- E6: randomized ---------- *)

let test_randomized_results () =
  let results = Exp_randomized.run tiny_cfg (Lazy.force blocks) in
  check_int "one per block" 4 (List.length results);
  List.iter
    (fun r ->
      Alcotest.(check bool) "means positive" true
        (r.Exp_randomized.randomized_mean > 0.0
        && r.Exp_randomized.deterministic > 0.0))
    results

(* ---------- E9: ablation ---------- *)

let test_ablation_rows () =
  let rs = Exp_ablation.rows (Lazy.force blocks) in
  check_int "one row per block" 4 (List.length rs);
  List.iter
    (fun r ->
      Alcotest.(check bool) "grouping improves on base" true
        (r.Exp_ablation.grouped <= r.Exp_ablation.base +. 1e-9);
      Alcotest.(check bool) "work conservation improves on case d" true
        (r.Exp_ablation.work_conserving
        <= r.Exp_ablation.backfilled +. 1e-9))
    rs

(* ---------- E7: releases ---------- *)

let test_releases_run () =
  let r = Exp_releases.run tiny_cfg in
  Alcotest.(check bool) "grouped Prop 1 holds" true
    r.Exp_releases.prop1_grouped_ok;
  Alcotest.(check bool) "has 5 algorithms" true
    (List.length r.Exp_releases.rows = 5);
  List.iter
    (fun row ->
      Alcotest.(check bool) "ratios at least 1" true
        (row.Exp_releases.lp_ratio >= 1.0 -. 1e-9))
    r.Exp_releases.rows

(* ---------- E8: concurrent open shop ---------- *)

(* The shop is 10 x 40 at every scale, so these are the values at quick
   and at default scale alike. *)
let test_openshop_twct () =
  let lines = String.split_on_char '\n' (Exp_openshop.render tiny_cfg) in
  let twct algo =
    List.find_map
      (fun l ->
        match List.map String.trim (String.split_on_char '|' l) with
        | [ ""; a; v; "" ] when a = algo -> Some v
        | _ -> None)
      lines
  in
  List.iter
    (fun (algo, v) ->
      Alcotest.(check (option string)) algo (Some v) (twct algo))
    [ ("primal-dual (2-approx) permutation", "15234.00");
      ("LP-ordered permutation", "15198.00");
      ("LP-ordered coflow schedule (case d)", "15198.00");
      ("single-machine WSPT lower bound", "8724.00");
    ]

(* ---------- E10: ordering portfolio ---------- *)

let test_orderings_rows () =
  let b = List.hd (Lazy.force blocks) in
  let rows = Exp_orderings.run b in
  check_int "eight algorithms" 8 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (r.Exp_orderings.algo ^ " at least LP bound")
        true
        (r.Exp_orderings.lp_ratio >= 1.0 -. 1e-9))
    rows

(* ---------- E11: LP grid ---------- *)

let test_lp_grid_rows () =
  let rows = Exp_lp_grid.run ~bases:[ 1.5; 2.0; 4.0 ] tiny_cfg in
  check_int "three bases" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "bound positive" true
        (r.Exp_lp_grid.lower_bound > 0.0);
      Alcotest.(check bool) "twct at least bound" true
        (r.Exp_lp_grid.twct >= r.Exp_lp_grid.lower_bound -. 1e-6))
    rows

(* ---------- E12: online ---------- *)

let test_online_rows () =
  let rows, bound = Exp_online.run tiny_cfg in
  check_int "eight algorithms" 8 (List.length rows);
  Alcotest.(check bool) "bound positive" true (bound > 0.0);
  List.iter
    (fun r ->
      Alcotest.(check bool) "flow time at most completion" true
        (r.Exp_online.twft <= r.Exp_online.twct +. 1e-9))
    rows

(* ---------- E14: robustness ---------- *)

let test_robust_rows () =
  let rows = Exp_robust.run ~noise_levels:[ 0.0; 1.0 ] tiny_cfg in
  check_int "two levels" 2 (List.length rows);
  let zero = List.hd rows in
  Alcotest.(check (float 1e-9)) "no noise, no degradation (Hrho)" 1.0
    zero.Exp_robust.degradation_hrho;
  Alcotest.(check (float 1e-9)) "no noise, no degradation (HLP)" 1.0
    zero.Exp_robust.degradation_hlp;
  List.iter
    (fun r ->
      Alcotest.(check bool) "positive" true (r.Exp_robust.twct_hrho > 0.0))
    rows

(* ---------- E15: DAG ---------- *)

let test_dag_rows () =
  let rows = Exp_dag.run tiny_cfg in
  check_int "three priorities" 3 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "sane" true
        (r.Exp_dag.stage_twct > 0.0
        && r.Exp_dag.makespan > 0
        && r.Exp_dag.sink_completion_sum > 0))
    rows

(* ---------- arena legs ---------- *)

let label (leg : Arena.leg) = leg.Arena.spec.Arena.label

let bound (leg : Arena.leg) = leg.Arena.spec.Arena.bound

let find_leg legs l = List.find (fun leg -> label leg = l) legs

(* ---------- E16: fabric ---------- *)

let test_fabric_rows () =
  let legs = Exp_fabric.run tiny_cfg in
  check_int "four capacities" 4 (List.length legs);
  let row leg = List.hd leg.Arena.rows in
  let first = row (List.hd legs) and last = row (List.nth legs 3) in
  Alcotest.(check bool) "oversubscription hurts (this seed)" true
    (last.Arena.twct >= first.Arena.twct);
  List.iter
    (fun leg ->
      let r = row leg in
      Alcotest.(check bool) "utilization sane" true
        (r.Arena.utilization > 0.0 && r.Arena.utilization <= 1.0))
    legs

let test_fabric_regression () =
  (* Golden values captured when the E15 sweep moved onto the Net path
     (k = 1 with a core budget): any drift in the oversubscribed special
     case — demand routing, core accounting, batching — shifts these. *)
  let legs = Exp_fabric.run tiny_cfg in
  List.iter2
    (fun (l, twct, makespan) leg ->
      let r = List.hd leg.Arena.rows in
      Alcotest.(check string) "label" l (label leg);
      Alcotest.(check (float 0.0)) (l ^ " twct") twct r.Arena.twct;
      check_int (l ^ " makespan") makespan r.Arena.slots)
    [ ("non-blocking", 20904.0, 894);
      ("2:1 oversubscribed", 25275.0, 1046);
      ("4:1 oversubscribed", 38804.0, 1689);
      ("10:1 oversubscribed", 70503.0, 3255);
    ]
    legs

(* ---------- E21: heterogeneous fabrics ---------- *)

let hetero = lazy (Exp_hetero.run tiny_cfg)

let test_hetero_legs_and_fault () =
  let legs = Lazy.force hetero in
  check_int "seven net legs plus the fault leg" 8 (List.length legs);
  (* run already asserts no policy beats each leg's bound and that the
     fault leg drained on the survivor; re-check the shape here *)
  let net_legs = List.filteri (fun i _ -> i < 7) legs in
  List.iter
    (fun leg ->
      Alcotest.(check bool)
        (label leg ^ " has the arena plus Chen-hetero")
        true
        (List.length leg.Arena.rows >= 2
        && (Arena.row leg "Chen-hetero").Arena.twct
           <= (Arena.row leg "Chen").Arena.twct +. 1e-6);
      Alcotest.(check bool) (label leg ^ " bound positive") true (bound leg > 0.0))
    net_legs;
  (* more aggregate rate = smaller rate-aware isolation bound *)
  let b l = bound (find_leg legs l) in
  Alcotest.(check bool) "bound shrinks with capacity" true
    (b "k=2 1:1" < b "k=1" && b "k=4 1:1" < b "k=2 1:1"
    && b "k=2 10:1" < b "k=2 4:1");
  let fault = List.nth legs 7 in
  let checks = fault.Arena.checks in
  List.iter
    (fun name ->
      Alcotest.(check (option bool)) name (Some true) (List.assoc_opt name checks))
    [ "completed"; "audit_ok"; "outage_clean"; "served_during_outage" ];
  Alcotest.(check bool) "fault leg certified" true
    (List.length checks = 5 && List.for_all snd checks)

let test_hetero_json () =
  let j = Arena.json ~experiment:"E21" (Lazy.force hetero) in
  (match Obs.Json.parse (String.trim j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "E21 json unparseable: %s" e);
  Alcotest.(check bool) "tagged E21" true
    (Astring.String.is_infix ~affix:"\"experiment\":\"E21\"" j);
  Alcotest.(check bool) "fault verdicts present" true
    (Astring.String.is_infix ~affix:"\"outage_clean\":true" j)

(* ---------- E18 scale: structural fallback labels ---------- *)

let grid_rows t = (List.hd (Exp_scale.legs t)).Arena.rows

let hlp_rows ~prefix t =
  List.filter
    (fun (r : Arena.row) -> Astring.String.is_prefix ~affix:prefix r.Arena.algo)
    (grid_rows t)

let test_scale_fallback_is_labeled () =
  (* a 1-pivot budget cannot prove optimality, so HLP must fall back —
     and the fallback must be structural, not prose *)
  let t = Exp_scale.run ~ports:6 ~coflows:8 ~lp_budget:1 tiny_cfg in
  check_int "12 grid rows" 12 (List.length (grid_rows t));
  (* the label carries the substitute *)
  let rows = hlp_rows ~prefix:"H_LP(fallback:H_rho) (" t in
  check_int "4 fallback rows" 4 (List.length rows);
  check_int "no plain H_LP row" 0 (List.length (hlp_rows ~prefix:"H_LP (" t));
  List.iter
    (fun (r : Arena.row) ->
      Alcotest.(check (option string)) "fallback field" (Some "H_rho")
        r.Arena.fallback)
    rows;
  Alcotest.(check bool) "report rows use the tagged name" true
    (Astring.String.is_infix ~affix:"H_LP(fallback:H_rho)" (Exp_scale.render t))

let test_scale_no_fallback_keeps_plain_label () =
  (* same tiny instance under a generous budget: the LP solves and the
     rows stay plain HLP *)
  let t = Exp_scale.run ~ports:6 ~coflows:8 ~lp_budget:100_000 tiny_cfg in
  Alcotest.(check bool) "no fallback rows" true
    (List.for_all (fun (r : Arena.row) -> r.Arena.fallback = None) (grid_rows t));
  check_int "4 plain HLP rows" 4 (List.length (hlp_rows ~prefix:"H_LP (" t))

(* ---------- E19 arena ---------- *)

let arena = lazy (Exp_arena.run ~jobs:2 ~scale:(6, 10) tiny_cfg)

let small_and_scale () =
  match Lazy.force arena with
  | [ small; scale ] -> (small, scale)
  | legs -> Alcotest.failf "expected two legs, got %d" (List.length legs)

let test_arena_shape () =
  let small, scale = small_and_scale () in
  (* 6 LP-free contenders + H_LP (d) + SEBF+MADD + MaxWeight + RR *)
  check_int "small rows" 10 (List.length small.Arena.rows);
  (* 6 LP-free contenders + budgeted H_LP *)
  check_int "scale rows" 7 (List.length scale.Arena.rows);
  List.iter
    (fun (leg : Arena.leg) ->
      Alcotest.(check bool) "bound positive" true (bound leg > 0.0);
      let twcts = List.map (fun (r : Arena.row) -> r.Arena.twct) leg.Arena.rows in
      Alcotest.(check bool) "ranked ascending" true
        (List.sort compare twcts = twcts);
      List.iter
        (fun twct ->
          Alcotest.(check bool) "dominates the lower bound" true
            (twct +. 1e-6 >= bound leg))
        twcts)
    [ small; scale ]

let test_arena_guaranteed_entries () =
  let small, scale = small_and_scale () in
  List.iter
    (fun leg ->
      let sg = Arena.row leg "SG" and chen = Arena.row leg "Chen" in
      Alcotest.(check bool) "SG has a factor" true (sg.Arena.guarantee <> None);
      Alcotest.(check bool) "Chen's factor is tighter" true
        (Option.get chen.Arena.guarantee < Option.get sg.Arena.guarantee))
    [ small; scale ];
  (* the small leg's ratio assertions already ran inside [run]; check the
     published ratios once more from the outside *)
  List.iter
    (fun (r : Arena.row) ->
      match r.Arena.guarantee with
      | Some g ->
        Alcotest.(check bool)
          (r.Arena.algo ^ " within factor of LP-EXP")
          true
          (r.Arena.ratio <= g +. 1e-9)
      | None -> ())
    small.Arena.rows

let test_arena_decision_gauges () =
  let small, scale = small_and_scale () in
  List.iter
    (fun (r : Arena.row) ->
      Alcotest.(check bool) "decisions counted" true (r.Arena.decisions > 0))
    (small.Arena.rows @ scale.Arena.rows);
  let g = Obs.Counter.Gauge.make "arena.small.sg.decision_us" in
  Alcotest.(check bool) "SG gauge published" true
    (Obs.Counter.Gauge.value g >= 0.0)

let test_arena_json () =
  let small, _ = small_and_scale () in
  let s = Arena.json ~experiment:"E19" (Lazy.force arena) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true
        (Astring.String.is_infix ~affix:needle s))
    [ "\"experiment\":\"E19\"";
      "\"algo\":\"SG\"";
      "\"fallback\":null";
      "\"guarantee\":null";
      "\"bound\":{\"name\":\"LP-EXP\"";
    ];
  (* the SG rows carry their factor as a JSON number *)
  let sg = Arena.row small "SG" in
  Alcotest.(check bool) "SG guarantee serialized" true
    (Astring.String.is_infix
       ~affix:(Printf.sprintf "\"guarantee\":%g" (Option.get sg.Arena.guarantee))
       s)

let test_arena_empty_filter_names_algorithm () =
  (* an absurd M0 filter empties the instance; the first statistics call
     must die naming the algorithm and the leg, not with a bare
     "Metrics.mean: empty" *)
  let empty =
    Workload.Instance.filter_m0 (Harness.base_instance tiny_cfg) 10_000
  in
  let net = Switchsim.Net.single ~ports:(Workload.Instance.ports empty) in
  match
    Arena.race ~jobs:1
      [ Arena.isolation_leg ~id:"empty" ~label:"empty leg (filter M0>=10000)"
          ~net empty (Arena.lp_free empty);
      ]
  with
  | _ -> Alcotest.fail "expected Invalid_argument on the empty filter"
  | exception Invalid_argument msg ->
    let contains needle = Astring.String.is_infix ~affix:needle msg in
    Alcotest.(check bool)
      ("names an algorithm: " ^ msg)
      true
      (contains "SG on empty leg");
    Alcotest.(check bool) ("names the filter: " ^ msg) true
      (contains "filter M0>=10000")

(* ---------- the shared arena JSON schema ---------- *)

let arena_docs ~jobs =
  [ ("E1", List.map leg (Harness.all_blocks ~jobs tiny_cfg));
    ("E15", Exp_fabric.run ~jobs tiny_cfg);
    ("E19", Exp_arena.run ~jobs ~scale:(6, 10) tiny_cfg);
    ("E21", Exp_hetero.run ~jobs tiny_cfg);
  ]
  |> List.map (fun (experiment, legs) ->
         (experiment, Obs.Json.parse_exn (Arena.json ~experiment legs)))

(* wall-time fields are the only ones allowed to differ between runs *)
let rec deterministic = function
  | Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "seconds" || k = "decision_us" then None
           else Some (k, deterministic v))
         fields)
  | Obs.Json.Arr items -> Obs.Json.Arr (List.map deterministic items)
  | v -> v

let test_arena_jobs_invariant () =
  List.iter2
    (fun (e, one) (_, two) ->
      Alcotest.(check bool) (e ^ " identical at jobs 1 and 2") true
        (deterministic one = deterministic two))
    (arena_docs ~jobs:1) (arena_docs ~jobs:2)

let test_arena_schema () =
  let get k v =
    match Obs.Json.member k v with
    | Some x -> x
    | None -> Alcotest.failf "missing %S" k
  in
  let has keys v = List.iter (fun k -> ignore (get k v)) keys in
  let items k v = Option.get (Obs.Json.to_list (get k v)) in
  List.iter
    (fun (e, doc) ->
      Alcotest.(check (option string)) "experiment" (Some e)
        (Obs.Json.to_string (get "experiment" doc));
      List.iter
        (fun leg ->
          has [ "id"; "label"; "ports"; "coflows"; "target" ] leg;
          has [ "name"; "value" ] (get "bound" leg);
          List.iter (has [ "rate"; "rack_size"; "core_capacity" ]) (items "net" leg);
          List.iter
            (has
               [ "rank"; "algo"; "fallback"; "guarantee"; "twct"; "ratio";
                 "slots"; "mean_completion"; "p95_completion"; "utilization";
                 "matchings"; "decisions"; "decision_us"; "seconds";
               ])
            (items "rows" leg);
          match get "checks" leg with
          | Obs.Json.Obj checks ->
            List.iter
              (fun (k, v) ->
                Alcotest.(check bool) (e ^ " " ^ k) true (v = Obs.Json.Bool true))
              checks
          | _ -> Alcotest.failf "%s: checks is not an object" e)
        (items "legs" doc))
    (arena_docs ~jobs:1)

let () =
  Alcotest.run "experiments"
    [ ( "report",
        [ Alcotest.test_case "table render" `Quick test_table_render;
          Alcotest.test_case "ragged rejected" `Quick
            test_table_ragged_rejected;
          Alcotest.test_case "csv" `Quick test_csv;
          Alcotest.test_case "formats" `Quick test_formats;
        ] );
      ("config", [ Alcotest.test_case "scales" `Quick test_scales ]);
      ( "harness",
        [ Alcotest.test_case "block shape" `Quick test_blocks_shape;
          Alcotest.test_case "normalization anchor" `Quick
            test_normalization_anchor;
          Alcotest.test_case "LP lower-bounds everything" `Quick
            test_lp_is_lower_bound_for_all_entries;
          Alcotest.test_case "dense = revised orderings" `Quick
            test_dense_and_revised_order_identically;
          Alcotest.test_case "find names missing pair" `Quick
            test_find_missing_names_the_pair;
          Alcotest.test_case "grid checks and guarantee" `Quick
            test_grid_checks;
          Alcotest.test_case "all_blocks jobs-invariant" `Quick
            test_all_blocks_jobs_invariant;
          Alcotest.test_case "empty filter rejected" `Quick
            test_filter_removes_everything_rejected;
          Alcotest.test_case "block tables pinned" `Quick
            test_block_tables_pinned;
        ] );
      ( "table1",
        [ Alcotest.test_case "row structure" `Quick test_table1_rows;
          Alcotest.test_case "renders" `Quick test_table1_renders;
        ] );
      ( "fig2a",
        [ Alcotest.test_case "base is 100%" `Quick test_fig2a_base_is_one;
          Alcotest.test_case "cases improve" `Quick test_fig2a_improvements;
        ] );
      ("fig2b", [ Alcotest.test_case "points" `Quick test_fig2b_points ]);
      ( "lowerbound",
        [ Alcotest.test_case "ordering" `Quick test_lower_bound_ordering ] );
      ("audit", [ Alcotest.test_case "passes" `Quick test_audit_passes ]);
      ( "randomized",
        [ Alcotest.test_case "results" `Quick test_randomized_results ] );
      ("releases", [ Alcotest.test_case "run" `Quick test_releases_run ]);
      ("openshop-exp", [ Alcotest.test_case "TWCT" `Quick test_openshop_twct ]);
      ("ablation", [ Alcotest.test_case "rows" `Quick test_ablation_rows ]);
      ("orderings", [ Alcotest.test_case "rows" `Quick test_orderings_rows ]);
      ("lp-grid", [ Alcotest.test_case "rows" `Quick test_lp_grid_rows ]);
      ("online", [ Alcotest.test_case "rows" `Quick test_online_rows ]);
      ("robust", [ Alcotest.test_case "rows" `Quick test_robust_rows ]);
      ("dag-exp", [ Alcotest.test_case "rows" `Quick test_dag_rows ]);
      ( "fabric-exp",
        [ Alcotest.test_case "rows" `Quick test_fabric_rows;
          Alcotest.test_case "net-path regression goldens" `Quick
            test_fabric_regression;
        ] );
      ( "hetero-exp",
        [ Alcotest.test_case "legs and fault certification" `Quick
            test_hetero_legs_and_fault;
          Alcotest.test_case "json artifact" `Quick test_hetero_json;
        ] );
      ( "scale-exp",
        [ Alcotest.test_case "fallback rows are labeled" `Quick
            test_scale_fallback_is_labeled;
          Alcotest.test_case "no fallback keeps plain HLP" `Quick
            test_scale_no_fallback_keeps_plain_label;
        ] );
      ( "arena",
        [ Alcotest.test_case "leg shapes and ranking" `Quick test_arena_shape;
          Alcotest.test_case "jobs-invariant JSON" `Quick
            test_arena_jobs_invariant;
          Alcotest.test_case "JSON schema round-trip" `Quick test_arena_schema;
          Alcotest.test_case "guaranteed entries" `Quick
            test_arena_guaranteed_entries;
          Alcotest.test_case "decision gauges" `Quick
            test_arena_decision_gauges;
          Alcotest.test_case "json artifact" `Quick test_arena_json;
          Alcotest.test_case "empty filter names algorithm" `Quick
            test_arena_empty_filter_names_algorithm;
        ] );
    ]

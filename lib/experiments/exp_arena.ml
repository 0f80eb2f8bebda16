open Workload
open Core

(* E19: every scheduler in the repo on two arena legs.  Contender
   construction is all that lives here; racing, ranking, assertions and
   output are {!Arena}'s. *)

(* The paper's full H_LP stack (LP order + deterministic grouping +
   backfilling), affordable on the small leg only. *)
let hlp_grouped_contender inst =
  let lp = Lp_relax.solve_interval inst in
  let with_releases = Array.exists (fun r -> r > 0) (Instance.releases inst) in
  { (Arena.contender "H_LP (d)"
       (Scheduler.as_policy ~backfill:true ~describe:"HLP (d)"
          (Grouping.deterministic inst (Ordering.by_lp lp))))
    with
    Arena.guarantee = Some (Verify.deterministic_ratio_limit ~with_releases);
  }

let slot_adaptive_contenders inst =
  let n = Instance.num_coflows inst in
  [ Arena.contender "SEBF+MADD" (Baselines.sebf_madd_policy ~coflows:n);
    Arena.contender "MaxWeight"
      (Baselines.max_weight_policy ~weights:(Instance.weights inst));
    Arena.contender "RR" (Baselines.round_robin_policy n);
  ]

(* The small-leg instance: LP-EXP-sized fb-like flows (as E4) but with
   geometric arrivals, so the release-aware branch of the SG/Chen rule
   and the factor-5/4.36 guarantees are actually exercised. *)
let small_instance (cfg : Config.t) ~ports ~coflows =
  let st = Random.State.make [| cfg.Config.seed; 0xA8E4A |] in
  let params =
    { Fb_like.ports; coflows; short_max = 2; long_mean = 3; long_cap = 8 }
  in
  let mean_gap = max 1 (cfg.Config.release_mean_gap / 10) in
  let inst = Fb_like.generate_with_arrivals ~params ~mean_gap ~ports ~coflows st in
  let wst = Random.State.make [| cfg.Config.seed; 0xA8E4A; 1 |] in
  Instance.with_weights inst (Weights.random_permutation wst coflows)

let run ?(jobs = 1) ?scale (cfg : Config.t) =
  Obs.Span.with_ "exp.arena" @@ fun () ->
  let small_inst =
    small_instance cfg ~ports:cfg.Config.lpexp_ports
      ~coflows:cfg.Config.lpexp_coflows
  in
  let lpexp = Lp_relax.solve_time_indexed ~max_vars:400_000 small_inst in
  let small_leg =
    { Arena.id = "small";
      label =
        Printf.sprintf "E19 small leg (%d ports, %d coflows)"
          (Instance.ports small_inst)
          (Instance.num_coflows small_inst);
      inst = small_inst;
      net = Switchsim.Net.single ~ports:(Instance.ports small_inst);
      bound_name = "LP-EXP";
      bound = lpexp.Lp_relax.lower_bound;
      target = Arena.Bound;
      contenders =
        Arena.lp_free small_inst
        @ hlp_grouped_contender small_inst
          :: slot_adaptive_contenders small_inst;
    }
  in
  let zp, zc = Option.value scale ~default:(Exp_scale.ports, Exp_scale.coflows) in
  let scale_inst = Exp_scale.instance ~ports:zp cfg ~coflows:zc in
  let hlp_name, fallback, hlp_order =
    Arena.budgeted_hlp ~lp_budget:Exp_scale.lp_budget scale_inst
  in
  let scale_leg =
    Arena.isolation_leg ~id:"scale"
      ~label:(Printf.sprintf "E19 scale leg (%d ports, %d coflows)" zp zc)
      ~net:(Switchsim.Net.single ~ports:zp)
      scale_inst
      (Arena.lp_free scale_inst
      @ [ { (Arena.contender hlp_name (Baselines.greedy_policy hlp_order)) with
            Arena.fallback
          }
        ])
  in
  Arena.race ~jobs [ small_leg; { scale_leg with target = Arena.Best_twct } ]

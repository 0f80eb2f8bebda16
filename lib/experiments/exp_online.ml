open Workload
open Core

type row = { algo : string; twct : float; twft : float; makespan : int }

let run ?(jobs = 1) (cfg : Config.t) =
  let st = Random.State.make [| cfg.Config.seed; 0x0A1 |] in
  let inst =
    Fb_like.generate_with_arrivals ~mean_gap:cfg.Config.release_mean_gap
      ~ports:cfg.Config.ports
      ~coflows:(cfg.Config.coflows / 2)
      st
  in
  let inst = Instance.filter_m0 inst (List.nth cfg.Config.filters 0 / 2) in
  let inst = Harness.random_weights cfg ~salt:0x0A2 inst in
  let weights = Instance.weights inst in
  let releases = Instance.releases inst in
  let row name (r : Scheduler.result) =
    { algo = name;
      twct = r.Scheduler.twct;
      twft =
        Metrics.total_weighted_flow ~weights ~releases r.Scheduler.completion;
      makespan = r.Scheduler.slots;
    }
  in
  let lp = Lp_relax.solve_interval inst in
  (* after the (shared) LP solve every row is an independent simulation;
     fan them out over the engine's domains *)
  let runs =
    [ (fun () ->
        row "offline Algorithm 2 (H_LP, grouped)"
          (Scheduler.run ~case:Scheduler.Group inst (Ordering.by_lp lp)));
      (fun () ->
        row "offline H_LP + grouping + backfilling"
          (Scheduler.run ~case:Scheduler.Group_backfill inst
             (Ordering.by_lp lp)));
      (fun () ->
        row "offline H_pd (primal-dual) + group + bf"
          (Scheduler.run ~case:Scheduler.Group_backfill inst
             (Primal_dual.order inst)));
    ]
    @ List.map
        (fun rule () -> row (Online.rule_name rule) (Online.run rule inst))
        Online.all_rules
    @ List.map
        (fun rule () ->
          row (Decentralized.rule_name rule) (Decentralized.run rule inst))
        Decentralized.all_rules
  in
  (Engine.run_many ~jobs runs, lp.Lp_relax.lower_bound)

let render ?jobs cfg =
  let rows, bound = run ?jobs cfg in
  Report.table
    ~title:
      (Printf.sprintf
         "Online vs offline under geometric arrivals (LP lower bound on \
          TWCT: %.0f)"
         bound)
    ~header:[ "algorithm"; "TWCT"; "weighted flow time"; "makespan" ]
    (List.map
       (fun r ->
         [ r.algo; Report.f2 r.twct; Report.f2 r.twft;
           string_of_int r.makespan;
         ])
       rows)

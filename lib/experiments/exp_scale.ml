open Workload
open Core

(* E18: the paper's evaluation scale.  The trace behind Table 1 has 150
   racks and 526 filtered coflows; every earlier experiment here ran at
   24-50 ports because the dense slot-by-slot simulator hit a wall far
   below that.  This experiment runs the full 12-algorithm grid at exactly
   that scale on the sparse, event-driven fabric, measures wall-clock
   throughput, and A/B-races the batched loop against the slot-by-slot one
   on identical instances (identical results, only [seconds] differs). *)

let ports = 150

let coflows = 526

let stretch_factor = 10

type ab = {
  ab_label : string;
  ab_slots : int;
  unbatched_s : float;
  batched_s : float;
  decisions : int;  (* policy decisions the batched run needed *)
}

type t = { legs : Arena.leg list; ab : ab list }

let legs t = t.legs

let per_sec slots seconds =
  if seconds > 0.0 then float_of_int slots /. seconds else Float.infinity

let g_batched_tp = Obs.Counter.Gauge.make "scale.batched_slots_per_sec"

let g_unbatched_tp = Obs.Counter.Gauge.make "scale.unbatched_slots_per_sec"

(* The paper-scale instance: fb-like trace at 150 ports, unfiltered (the
   generator's size distribution stands in for the post-M0 population),
   paper-style random permutation weights. *)
let instance ?(ports = ports) (cfg : Config.t) ~coflows =
  let st = Random.State.make [| cfg.Config.seed; 0x5CA1E |] in
  let inst = Fb_like.generate ~ports ~coflows st in
  let wst = Random.State.make [| cfg.Config.seed; 0x5CA1E; 1 |] in
  Instance.with_weights inst (Weights.random_permutation wst coflows)

(* Deterministic pivot budget for the HLP order.  At 150 ports x 526
   coflows the interval LP has ~13k variables and a revised-simplex pivot
   costs milliseconds, so a full solve is far outside a CI budget; the
   budget is set to trip in a few seconds and the HLP rows then reuse
   H_rho — the same degradation the resilient chain applies — tagged in
   the row names.  A future warm-started or decomposed solver can raise
   this without touching the experiment. *)
let lp_budget = 2_000

let run ?(stretch = false) ?(jobs = 1) ?ports:(ports' = ports)
    ?(coflows = coflows) ?(lp_budget = lp_budget) (cfg : Config.t) =
  Obs.Span.with_ "exp.scale" @@ fun () ->
  let net = Switchsim.Net.single ~ports:ports' in
  let leg id label inst =
    Arena.isolation_leg ~id ~net inst
      ~label:
        (Printf.sprintf "%s (%d ports, %d coflows)" label ports'
           (Instance.num_coflows inst))
  in
  let inst = instance ~ports:ports' cfg ~coflows in
  let hrho = Ordering.by_load_over_weight inst in
  (* the 12-entry grid, batched; independent simulations, one job each *)
  let grid =
    leg "grid" "E18 scale grid" inst
      (Arena.grid inst ~hlp:(Arena.budgeted_hlp ~lp_budget inst))
  in
  let grid = Arena.race ~jobs [ grid ] in
  (* A/B: same policy, batched vs {!Policy.unbatched}, sequentially
     (wall-clock must not share cores).  Greedy H_rho exercises
     Policy.of_priority's batcher; case (d) exercises the scheduler's
     BvN-queue batcher. *)
  let ab_specs =
    [ ("greedy H_rho", Baselines.greedy_policy hrho);
      ("grouped H_rho (d)",
       Scheduler.case_policy ~case:Scheduler.Group_backfill inst hrho);
    ]
  in
  let ab =
    List.map
      (fun (ab_label, policy) ->
        let unbatched = Engine.run inst (Policy.unbatched policy) in
        let batched = Engine.run inst policy in
        assert (batched.Engine.twct = unbatched.Engine.twct);
        assert (batched.Engine.slots = unbatched.Engine.slots);
        if batched.Engine.seconds > 0.0 then
          Obs.Counter.Gauge.set g_batched_tp
            (per_sec batched.Engine.slots batched.Engine.seconds);
        if unbatched.Engine.seconds > 0.0 then
          Obs.Counter.Gauge.set g_unbatched_tp
            (per_sec unbatched.Engine.slots unbatched.Engine.seconds);
        { ab_label;
          ab_slots = batched.Engine.slots;
          unbatched_s = unbatched.Engine.seconds;
          batched_s = batched.Engine.seconds;
          decisions = batched.Engine.decisions;
        })
      ab_specs
  in
  (* the stretch runs alone, after the A/B, so its throughput is honest *)
  let stretch =
    if not stretch then []
    else
      let big = instance ~ports:ports' cfg ~coflows:(coflows * stretch_factor) in
      Arena.race ~jobs:1
        [ leg "stretch"
            (Printf.sprintf "E18 stretch: %dx the paper's coflow count"
               stretch_factor)
            big
            [ Arena.contender "H_rho"
                (Baselines.greedy_policy (Ordering.by_load_over_weight big))
            ];
        ]
  in
  { legs = grid @ stretch; ab }

let render t =
  Arena.render t.legs ^ "\n"
  ^ Report.table
      ~title:
        "E18 A/B: event-driven batching vs slot-by-slot (identical \
         schedules, wall clock only)"
      ~header:
        [ "policy"; "slots"; "decisions"; "slot-by-slot (s)"; "batched (s)";
          "speedup"; "batched slots/sec";
        ]
      (List.map
         (fun a ->
           [ a.ab_label;
             string_of_int a.ab_slots;
             string_of_int a.decisions;
             Printf.sprintf "%.3f" a.unbatched_s;
             Printf.sprintf "%.3f" a.batched_s;
             Printf.sprintf "%.1fx"
               (if a.batched_s > 0.0 then a.unbatched_s /. a.batched_s
                else Float.infinity);
             Printf.sprintf "%.0f" (per_sec a.ab_slots a.batched_s);
           ])
         t.ab)

open Workload
open Core

let run ?(jobs = 1) (cfg : Config.t) =
  let inst = Harness.random_weights cfg ~salt:0xFAB (Harness.first_filter cfg) in
  let ports = Instance.ports inst in
  let rack_size = max 1 (ports / 6) in
  let policy = Baselines.greedy_policy (Ordering.by_load_over_weight inst) in
  Arena.race ~jobs
    (List.map
       (fun (label, core_capacity) ->
         Arena.isolation_leg ~id:(Arena.slug label) ~label
           ~net:(Switchsim.Net.two_tier ~ports ~rack_size ~core_capacity)
           inst
           [ Arena.contender "H_rho" policy ])
       [ ("non-blocking", ports);
         ("2:1 oversubscribed", max 1 (ports / 2));
         ("4:1 oversubscribed", max 1 (ports / 4));
         ("10:1 oversubscribed", max 1 (ports / 10));
       ])

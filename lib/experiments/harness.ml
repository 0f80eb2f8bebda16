open Workload
open Core

type weighting = Equal | Random

let weighting_name = function Equal -> "equal" | Random -> "random"

type entry = {
  order_name : string;
  case : Scheduler.case;
  result : Scheduler.result;
}

type block = {
  filter : int;
  weighting : weighting;
  instance : Instance.t;
  lp : Lp_relax.result;
  entries : entry list;
}

let order_names = [ "HA"; "Hrho"; "HLP" ]

let base_instance (cfg : Config.t) =
  let st = Random.State.make [| cfg.Config.seed |] in
  Fb_like.generate ~ports:cfg.Config.ports ~coflows:cfg.Config.coflows st

let first_filter (cfg : Config.t) =
  Instance.filter_m0 (base_instance cfg) (List.nth cfg.Config.filters 0)

let random_weights (cfg : Config.t) ~salt inst =
  let st = Random.State.make [| cfg.Config.seed; salt |] in
  Instance.with_weights inst
    (Weights.random_permutation st (Instance.num_coflows inst))

let block ?warm_start cfg ~filter ~weighting =
  Obs.Span.with_ "harness.block" @@ fun () ->
  let inst = Instance.filter_m0 (base_instance cfg) filter in
  let n = Instance.num_coflows inst in
  if n = 0 then
    invalid_arg
      (Printf.sprintf "Harness.block: filter M0>=%d removed every coflow"
         filter);
  let inst =
    match weighting with
    | Equal -> Instance.with_weights inst (Weights.equal n)
    | Random ->
      (* weight seed depends on the filter so blocks are independent yet
         reproducible *)
      let st = Random.State.make [| cfg.Config.seed; filter; 0xBEEF |] in
      Instance.with_weights inst (Weights.random_permutation st n)
  in
  let lp =
    Obs.Span.with_ "harness.lp_solve" (fun () ->
        Lp_relax.solve_interval ?warm_start inst)
  in
  let orders =
    [ ("HA", Ordering.arrival inst);
      ("Hrho", Ordering.by_load_over_weight inst);
      ("HLP", Ordering.by_lp lp);
    ]
  in
  let entries =
    Obs.Span.with_ "harness.schedule" (fun () ->
        List.concat_map
          (fun (order_name, order) ->
            List.map
              (fun case ->
                { order_name; case; result = Scheduler.run ~case inst order })
              Scheduler.all_cases)
          orders)
  in
  { filter; weighting; instance = inst; lp; entries }

(* The two weightings of a filter share the instance (and thus the
   constraint rows); only the objective differs, so the equal-weight optimum
   is a natural warm start for the random-weight solve.  One job per filter:
   the equal->random warm chaining stays inside a job, and different filters
   are fully independent, so the block list is identical at any job count. *)
let all_blocks ?(jobs = 1) cfg =
  Engine.run_many ~jobs
    (List.map
       (fun filter () ->
         let equal = block cfg ~filter ~weighting:Equal in
         let random =
           block ?warm_start:equal.lp.Lp_relax.warm cfg ~filter
             ~weighting:Random
         in
         [ equal; random ])
       cfg.Config.filters)
  |> List.concat

let find b ~order case =
  match
    List.find_opt
      (fun e -> e.order_name = order && e.case = case)
      b.entries
  with
  | Some e -> e
  | None ->
    failwith
      (Printf.sprintf
         "Harness.find: no entry for order %S, case (%s) in block (filter \
          M0>=%d, %s weights)"
         order (Scheduler.case_name case) b.filter
         (weighting_name b.weighting))

let twct b ~order case = (find b ~order case).result.Scheduler.twct

let normalized b entry =
  let base = twct b ~order:"HLP" Scheduler.Group_backfill in
  entry.result.Scheduler.twct /. base

let lp_ratio b ~order case =
  let bound = b.lp.Lp_relax.lower_bound in
  if bound <= 0.0 then infinity else twct b ~order case /. bound

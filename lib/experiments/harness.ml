open Workload
open Core

type weighting = Equal | Random

let weighting_name = function Equal -> "equal" | Random -> "random"

type block = {
  filter : int;
  weighting : weighting;
  lp : Lp_relax.result;
  leg : Arena.leg;
}

let base_instance (cfg : Config.t) =
  let st = Random.State.make [| cfg.Config.seed |] in
  Fb_like.generate ~ports:cfg.Config.ports ~coflows:cfg.Config.coflows st

let first_filter (cfg : Config.t) =
  Instance.filter_m0 (base_instance cfg) (List.nth cfg.Config.filters 0)

let random_weights (cfg : Config.t) ~salt inst =
  let st = Random.State.make [| cfg.Config.seed; salt |] in
  Instance.with_weights inst
    (Weights.random_permutation st (Instance.num_coflows inst))

let instance cfg ~filter ~weighting =
  let inst = Instance.filter_m0 (base_instance cfg) filter in
  let n = Instance.num_coflows inst in
  if n = 0 then
    invalid_arg
      (Printf.sprintf "Harness: filter M0>=%d removed every coflow" filter);
  match weighting with
  | Equal -> Instance.with_weights inst (Weights.equal n)
  | Random ->
    (* weight seed depends on the filter so blocks are independent yet
       reproducible *)
    let st = Random.State.make [| cfg.Config.seed; filter; 0xBEEF |] in
    Instance.with_weights inst (Weights.random_permutation st n)

(* The block's leg: the grid against the interval-LP bound, Theorem 1's
   factor on H_LP (c), the paper's deterministic algorithm. *)
let spec ~filter ~weighting inst (lp : Lp_relax.result) =
  let theorem1 = Arena.grid_algo "H_LP" Scheduler.Group in
  let with_releases = Array.exists (fun r -> r > 0) (Instance.releases inst) in
  let guarantee = Some (Verify.deterministic_ratio_limit ~with_releases) in
  { Arena.id = Printf.sprintf "m0_%d_%s" filter (weighting_name weighting);
    label =
      Printf.sprintf "Table 1 block (M0>=%d, %s weights)" filter
        (weighting_name weighting);
    inst;
    net = Switchsim.Net.single ~ports:(Instance.ports inst);
    bound_name = "interval LP";
    bound = lp.Lp_relax.lower_bound;
    target = Arena.Bound;
    contenders =
      List.map
        (fun (c : Arena.contender) ->
          if c.Arena.name = theorem1 then { c with Arena.guarantee } else c)
        (Arena.grid inst ~hlp:("H_LP", None, Ordering.by_lp lp));
  }

(* The two weightings of a filter share the instance (and thus the
   constraint rows); only the objective differs, so the equal-weight optimum
   is a natural warm start for the random-weight solve.  One LP job per
   filter keeps that chain inside a job, so the LPs are identical at any
   job count; the races are independent runs. *)
let all_blocks ?(jobs = 1) cfg =
  let solved =
    Engine.run_many ~jobs
      (List.map
         (fun filter () ->
           let solve ?warm_start weighting =
             let inst = instance cfg ~filter ~weighting in
             let lp =
               Obs.Span.with_ "harness.lp_solve" (fun () ->
                   Lp_relax.solve_interval ?warm_start inst)
             in
             (filter, weighting, inst, lp)
           in
           let ((_, _, _, equal) as eq) = solve Equal in
           [ eq; solve ?warm_start:equal.Lp_relax.warm Random ])
         cfg.Config.filters)
    |> List.concat
  in
  let legs =
    Arena.race ~jobs
      (List.map
         (fun (filter, weighting, inst, lp) -> spec ~filter ~weighting inst lp)
         solved)
  in
  List.map2
    (fun (filter, weighting, _, lp) leg -> { filter; weighting; lp; leg })
    solved legs

(** Shared computation behind Table 1 and Figures 2a/2b: for each
    (M0-filter, weighting) block, run all 12 algorithms — {H_A, H_rho, H_LP}
    x {(a), (b), (c), (d)} — on the filtered fb-like trace and keep the LP
    relaxation around for lower bounds and audits. *)

type weighting = Equal | Random

val weighting_name : weighting -> string

type entry = {
  order_name : string;  (** "HA" | "Hrho" | "HLP" *)
  case : Core.Scheduler.case;
  result : Core.Scheduler.result;
}

type block = {
  filter : int;
  weighting : weighting;
  instance : Workload.Instance.t;  (** filtered + weighted *)
  lp : Core.Lp_relax.result;
  entries : entry list;  (** all 12 combinations *)
}

val order_names : string list

val base_instance : Config.t -> Workload.Instance.t
(** The unfiltered fb-like trace for this configuration (deterministic in
    the seed). *)

val first_filter : Config.t -> Workload.Instance.t
(** {!base_instance} under the configuration's first M0 filter. *)

val random_weights :
  Config.t -> salt:int -> Workload.Instance.t -> Workload.Instance.t
(** Paper-style random-permutation weights drawn from
    [[| cfg.seed; salt |]]. *)

val block :
  ?warm_start:Core.Lp_relax.warm_hints ->
  Config.t ->
  filter:int ->
  weighting:weighting ->
  block
(** [warm_start] seeds the block's LP solve (see
    {!Core.Lp_relax.solve_interval}); {!all_blocks} uses it to chain each
    filter's equal-weight basis into the random-weight solve. *)

val all_blocks : ?jobs:int -> Config.t -> block list
(** Every (filter, weighting) combination of the configuration; this is
    where the six LP solves happen.  [jobs] (default 1) distributes the
    filters over that many domains via {!Core.Engine.run_many} — the
    equal-to-random warm-start chaining stays within a filter, so the
    returned blocks are identical at any job count. *)

val find : block -> order:string -> Core.Scheduler.case -> entry
(** @raise Failure naming the missing (order, case) pair and the block's
    (filter, weighting) when absent. *)

val twct : block -> order:string -> Core.Scheduler.case -> float

val normalized : block -> entry -> float
(** Entry TWCT divided by the block's (H_LP, case (d)) TWCT — the
    normalization used in the paper's Table 1. *)

val lp_ratio : block -> order:string -> Core.Scheduler.case -> float
(** TWCT over the LP lower bound (an upper bound on the true approximation
    ratio). *)

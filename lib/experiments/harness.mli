(** The instance draws behind the fb-like experiments, and the
    (M0-filter, weighting) blocks behind Table 1, Figures 2a/2b, E5, E6,
    E9 and E10.  Each block is one {!Arena} leg: the 12 contenders of
    {!Arena.grid} — {H_A, H_rho, H_LP} x cases (a)-(d) — raced on the
    filtered, weighted fb-like trace against its interval-LP bound, with
    [H_LP (c)] held to Theorem 1's factor.  Rows are read with
    {!Arena.row}. *)

type weighting = Equal | Random

val weighting_name : weighting -> string

type block = {
  filter : int;
  weighting : weighting;
  lp : Core.Lp_relax.result;
      (** the interval LP of the leg's instance: its bound and H_LP order *)
  leg : Arena.leg;
      (** the raced grid; [leg.spec.inst] is the filtered, weighted
          instance *)
}

val base_instance : Config.t -> Workload.Instance.t
(** The unfiltered fb-like trace for this configuration (deterministic in
    the seed). *)

val first_filter : Config.t -> Workload.Instance.t
(** {!base_instance} under the configuration's first M0 filter. *)

val random_weights :
  Config.t -> salt:int -> Workload.Instance.t -> Workload.Instance.t
(** Paper-style random-permutation weights drawn from
    [[| cfg.seed; salt |]]. *)

val all_blocks : ?jobs:int -> Config.t -> block list
(** Every (filter, weighting) block of the configuration, filter by
    filter, equal weights before random.  The interval LPs are solved one
    filter per {!Core.Engine.run_many} job, the equal-weight optimum
    warm-starting the random-weight solve; then every block's leg is
    raced in one {!Arena.race} over [jobs] (default 1) domains, which
    asserts each row's checks, the bound, and [H_LP (c)] within
    {!Core.Verify.deterministic_ratio_limit} of it.  The blocks are
    identical at any job count.
    @raise Invalid_argument naming the filter when it removes every
    coflow. *)

(** Degradation-aware scheduling loop: ordering-based service that survives
    runtime faults.

    The paper's algorithms assume exact demands and a fault-free switch.
    This module runs any of the paper's orderings against a
    {!Faults.Fault_plan}, re-planning whenever the fault environment
    changes: at every fault boundary it recomputes the coflow order on the
    {e residual} instance (remaining demands, releases shifted to "now"),
    walking a policy chain

    {v H_LP  ->  H_rho  ->  H_A v}

    - [H_LP] re-solves the interval-indexed LP under an iteration budget
      and an optional real-time deadline, retrying with a doubled budget
      ([lp_retries] times) before falling through;
    - [H_rho] (load over weight) needs only demand statistics;
    - [H_A] (arrival order) needs nothing and always succeeds.

    A {!Faults.Fault_plan.Solver_outage} forces the chain down explicitly:
    [`Lp_only] skips the LP tier, [`Full] also skips [H_rho] (the demand
    statistics plane is gone).  The slots each tier served are summed in
    [tier_slots]; with tracing on, each re-plan is a slice on the
    ["replan"] track labelled with its tier.

    Service itself is {!Policy.greedy_matching} over the injector's
    compiled fault state, batched like every other greedy policy: a
    decision's cap is the next fault-state change
    ({!Faults.Fault_plan.stable_until}) and the next fault boundary, and
    the simulator stops the batch sooner at a release or an emptied
    entry.  Every slot is checked by the simulator's validate hook, and
    the run is recorded through {!Policy.recorded}: the returned
    transcript can be re-certified independently with
    {!Faults.Audit.check}.

    Determinism: with [lp_deadline = None] (or a deadline the solves never
    approach) the whole run is a pure function of instance, plan and
    config — replaying a seeded plan twice yields byte-identical
    transcripts.  A wall-clock deadline trades that for bounded re-planning
    latency. *)

type tier = Lp | Rho | Arrival

val tier_name : tier -> string
(** ["lp"], ["rho"], ["arrival"] — the labels of trace slices and
    reports. *)

val tier_index : tier -> int
(** The position in {!all_tiers}. *)

val all_tiers : tier list

type config = {
  primary : tier;  (** top of the chain; [Rho]/[Arrival] skip tiers above *)
  lp_deadline : float option;
      (** real-time budget (seconds) per LP attempt, [None] = unlimited *)
  lp_max_iterations : int;  (** simplex pivot budget per LP attempt *)
  lp_retries : int;
      (** extra LP attempts after a failure, each with a doubled deadline *)
  lp_warm_start : bool;
      (** seed each residual LP with the previous round's final basis
          (remapped to the residual index space and time origin); the basis
          is validated by the solver and falls back to the crash basis when
          stale, so this only reduces simplex effort *)
  max_slots : int;  (** safety valve against never-ending plans *)
}

val default_config : config
(** [Lp] primary, 5 s deadline, 200k pivots, one retry, warm-starting
    on. *)

type result = {
  completion : int array;
  twct : float;
  slots : int;
  tier_slots : (tier * int) list;
      (** slots served per tier, in [all_tiers] order *)
  replans : int;  (** re-planning rounds, including the initial one *)
  lp_failures : int;  (** LP attempts that timed out, diverged or failed *)
  lp_iterations : int;
      (** total simplex pivots across all successful LP re-plans *)
  lp_refactors : int;
      (** total basis factorizations across all successful LP re-plans *)
  audit : Switchsim.Recorder.t;
      (** the run's transcript, ready for {!Faults.Audit.check} *)
  engine : Engine.result;
      (** the underlying engine run ([completion], [twct] and [slots] above
          are its fields; [decisions] counts the batched decisions taken,
          each covering one or more consecutive slots) *)
}

val lp_tier :
  max_iterations:int ->
  deadline:float option ->
  retries:int ->
  warm_start:bool ->
  warm:Lp_relax.warm_hints option ref ->
  ids:int array ->
  origin:int ->
  on_failure:(unit -> unit) ->
  Workload.Instance.t ->
  Lp_relax.result option
(** The chain's LP tier, which {!run} and the service's epoch planner
    share.  [warm] is a basis keyed by caller ids ([ids.(i)] for coflow
    [i]) at absolute times (slot 0 is [origin]).  Solve with it (if
    [warm_start]) under [max_iterations] pivots and [deadline]; on each
    failure call [on_failure] and retry, [retries] times, with a doubled
    deadline; store the new basis back in [warm].  [None]: use H_rho. *)

val chain :
  primary:tier ->
  outage:[ `None | `Lp_only | `Full ] ->
  lp:(unit -> Lp_relax.result option) ->
  Workload.Instance.t ->
  tier * Ordering.t
(** The degradation chain, which {!run}'s re-plans and the service's
    epoch planner both walk: start at [primary], skip the tiers [outage]
    knocks out, and fall from the LP tier to H_rho when the attempt [lp]
    (an {!lp_tier} call, run only when the chain reaches that tier)
    yields nothing.  Returns the tier that produced the order and the
    order over [inst]'s coflows. *)

val run :
  ?config:config ->
  ?net:Switchsim.Net.t ->
  ?plan:Faults.Fault_plan.t ->
  Workload.Instance.t ->
  result
(** Run to completion under the plan (default: no faults) on [net]
    (default {!Switchsim.Net.single}).  On an oversubscribed fabric core
    degradation tightens the inter-rack budget and the greedy service
    respects rack locality; on a multi-fabric net
    {!Faults.Fault_plan.Fabric_down} boundaries trigger re-plans and the
    greedy service drains the residual demand over the surviving
    fabrics.  @raise Failure when [max_slots] is
    exhausted (a plan that never lifts an outage). *)

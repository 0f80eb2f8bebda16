(** The slot-loop engine: one place that owns policy execution.

    {!run} drives a {!Policy.t} against the simulator — the loop itself is
    {!Switchsim.Simulator.run}, the single choke point for slot validation,
    budget enforcement and per-slot instrumentation — and assembles the
    {!result} every scheduler used to hand-roll: completion vector, TWCT
    under the instance's weights, makespan, utilization, matchings built.

    {!run_many} executes independent jobs across OCaml 5 domains.
    Determinism contract: a job must be a pure function of its closure
    (own [Random.State], own simulator).  Observability streams that are
    order-sensitive (slot events, trace fragments) are captured per job
    and merged in job-index order at the join; counters, histograms and
    span aggregates commute.  Output is therefore byte-identical at any
    job count. *)

type result = {
  completion : int array;
      (** completion slot per working index, never below the coflow's
          release date (an empty-demand coflow completes on arrival, not
          at slot 0 — keeping TWCT comparable with release-aware lower
          bounds) *)
  twct : float;  (** total weighted completion time *)
  slots : int;  (** schedule length (makespan) *)
  seconds : float;  (** wall-clock time of the simulation loop *)
  utilization : float;
  matchings : int;  (** distinct BvN matchings computed *)
}

val run :
  ?max_slots:int ->
  ?sim:Switchsim.Simulator.t ->
  ?batch:bool ->
  Workload.Instance.t ->
  Policy.t ->
  result
(** [run inst policy] prepares the policy on a fresh simulator for [inst]
    (or on [sim] when a custom one — fabric-validated, fault-injected — is
    supplied; it must have been created from [inst]'s demands) and steps it
    to completion.  [max_slots] as in {!Switchsim.Simulator.run}.

    When the prepared stepper offers a batched decision the engine drives
    {!Switchsim.Simulator.run_batched} — the event-driven loop that jumps
    the clock across runs of identical slots — and
    {!Switchsim.Simulator.run} over [next_slot] otherwise.  [batch:false]
    forces the slot-by-slot loop (the A/B lever the equivalence tests and the
    throughput experiments use); results are identical either way, only
    [seconds] differs.  Wall-clock throughput of the run is published on
    the [engine.slots_per_sec] / [engine.coflows_per_sec] gauges.
    @raise Switchsim.Simulator.Invalid_slot on a bad policy decision,
    [Failure] when the slot budget is exhausted. *)

val run_many : jobs:int -> (unit -> 'a) list -> 'a list
(** [run_many ~jobs thunks] evaluates every thunk and returns their values
    in input order, using up to [jobs] domains ([jobs = 1]: the calling
    domain only, no spawn).  A raising thunk re-raises at the join, after
    all jobs finish — the earliest failing index wins deterministically.
    @raise Invalid_argument when [jobs < 1]. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1], at least 1 — a sensible
    [--jobs] value that leaves a core for the driver. *)

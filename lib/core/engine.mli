(** The slot-loop engine: one place that owns policy execution.

    {!run} drives a {!Policy.t} against the simulator — the loop itself is
    {!Switchsim.Simulator.run}, the single choke point for slot validation,
    budget enforcement, per-decision instrumentation and the decision
    count — and assembles the {!result} every scheduler used to hand-roll:
    completion vector, TWCT under the instance's weights, makespan,
    utilization, matchings built, decisions taken.

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
  decisions : int;
      (** policy decisions the loop took, each covering one or more
          consecutive slots: [slots] when every decision is a single slot
          ({!Policy.unbatched}), fewer when the policy batches *)
}

val run :
  ?max_slots:int ->
  ?sim:Switchsim.Simulator.t ->
  Workload.Instance.t ->
  Policy.t ->
  result
(** [run inst policy] prepares the policy on a fresh simulator for [inst]
    (or on [sim] when a custom one — fabric-validated, fault-injected — is
    supplied; it must have been created from [inst]'s demands) and steps it
    to completion with {!Switchsim.Simulator.run}, the one loop.
    [max_slots] as there.

    The loop gets the prepared stepper's batched decision and its
    [committed] when it offers one — the event-driven decision that jumps
    the clock across runs of identical slots, sized by the simulator
    within the decision's cap — and its [next_slot] as a batch of one
    otherwise.
    {!Policy.unbatched} gives the slot-by-slot reference; results are
    identical either way, only [decisions] and [seconds] differ.
    Wall-clock throughput of the run is published on the
    [engine.slots_per_sec] / [engine.coflows_per_sec] gauges.
    @raise Switchsim.Simulator.Invalid_slot on a bad policy decision,
    [Failure] when the slot budget is exhausted. *)

val run_many : jobs:int -> (unit -> 'a) list -> 'a list
(** [run_many ~jobs thunks] evaluates every thunk and returns their values
    in input order, using up to [jobs] domains ([jobs = 1]: the calling
    domain only, no spawn).  A raising thunk re-raises at the join, after
    all jobs finish — the earliest failing index wins deterministically.
    @raise Invalid_argument when [jobs < 1]. *)

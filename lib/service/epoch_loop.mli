(** The long-lived scheduler daemon: an epoch-based re-solve loop over an
    open arrival stream.

    Batch experiments solve once and run to completion; the service never
    sees the whole input.  Time is divided into {e epochs} of at most
    [epoch_length] slots.  At each epoch boundary the loop:

    + drains the arrival source of every coflow due by "now" and runs each
      through {!Admission} (queue-depth backpressure, deadline tagging) —
      admitted coflows join the bounded live set, rejected ones are
      counted and dropped;
    + takes the epoch's fault plan from its {!fault_source} (epoch-local
      slot numbering) and builds a fresh fault-injected simulator over
      the live set's {e residual} demands;
    + re-solves the coflow order by walking {!Core.Resilient.chain}
      [H_LP -> H_rho -> H_A] with an attempt of
      {!Core.Resilient.lp_tier}: the LP runs under [lp_deadline]
      wall-clock seconds and [lp_max_iterations] pivots with [lp_retries]
      doubled-budget retries, warm-started from the previous epoch's
      exported basis (remapped from global coflow ids and shifted by the
      elapsed slots); a solver outage in the epoch's fault plan or an
      exhausted LP budget degrades down the chain, and {e SLO pressure}
      (live set above [degrade_live_above]) lowers the chain's primary
      tier to H_rho, so the service degrades instead of stalling — every
      degradation is counted ([service.degradations], per-cause counters)
      and emitted as a trace instant;
    + serves up to [epoch_length] slots of fault-aware greedy matching in
      the chosen order, batched up to each fault-state change, feeding
      every slot to an incremental
      {!Faults.Audit.checker} (a violation stops the run at the offending
      slot) and folding admissions, completions and tiers into a rolling
      {!Fingerprint};
    + retires completed coflows (their absolute completion time feeds the
      TWCT and the deadline-miss counter) and carries the survivors'
      remaining demands into the next epoch.

    When the live set is empty the clock jumps directly to the next
    arrival (event-driven idle skip), so a sparse stream costs nothing to
    simulate.

    {b Memory ceiling}: the loop's state is O(max_live) — the live set is
    bounded by admission, the audit is incremental, the waits are bucketed
    and the fingerprint is a single word.  {b Determinism}: with
    [lp_deadline = None] the whole run is a pure function of (arrival
    seed, plan seed, config): replaying yields an identical
    {!stats.fingerprint}.  A wall-clock [lp_deadline] trades that for
    bounded epoch latency — degradations may then depend on machine speed,
    which is the operational trade the paper's setting demands. *)

(** Where each epoch's fault plan comes from. *)
type fault_source =
  | Seeded of float
      (** {!Faults.Fault_plan.random} at this intensity, seeded by
          [plan_seed] and the epoch index; [Seeded 0.0] injects nothing *)
  | Scripted of (epoch:int -> coflows:int -> Faults.Fault_plan.t)
      (** [epoch] is the 0-based index of executed epochs, [coflows] the
          live-set size, and the returned plan uses epoch-local slots and
          live-set coflow indices ([< coflows]).  This is how E20 injects
          {e known} fault windows and then asserts that telemetry raises a
          matching alert for each one. *)

type config = {
  epoch_length : int;  (** re-solve cadence, slots, >= 1 *)
  admission : Admission.config;
  lp_deadline : float option;
      (** wall-clock budget (seconds) per LP attempt; [None] = unlimited
          (and fully deterministic) *)
  lp_max_iterations : int;  (** simplex pivot budget per LP attempt *)
  lp_retries : int;
      (** doubled-budget retries after an LP failure; every attempt is
          seeded from the previous epoch's basis *)
  degrade_live_above : int;
      (** SLO-aware degradation: skip the LP tier while the live set is
          larger than this (the solve would outlast the epoch) *)
  degrade_notch : (unit -> int) option;
      (** Alert-driven reaction hook, consulted once per epoch before
          planning (unless a solver outage already rules the epoch):
          each notch {e halves} the [degrade_live_above] bar for
          that epoch, so a firing burn-rate alert (see
          {!Telemetry.degrade_notch}) makes the loop degrade to the cheap
          H_rho tier earlier, and the bar restores by itself the epoch
          after the alert resolves.  [None] (the default) plans exactly as
          before.  Reaction-driven degradations (epochs that would have
          kept the LP at the unraised bar) are counted in
          [stats.reaction_degradations] and [service.degrade.reaction]. *)
  net : Switchsim.Net.t option;
      (** serve on this multi-fabric topology ([None] = the classic
          single non-blocking switch); epoch fault plans may then carry
          {!Faults.Fault_plan.Fabric_down} events, which the injector
          routes around and the per-epoch audit certifies per fabric *)
  faults : fault_source;  (** each epoch's fault plan *)
  max_slots : int;  (** safety valve on total simulated slots *)
}

val default_config : config
(** Epoch 64 slots, default admission, 1 s LP deadline, 60k pivots, one
    retry, degrade above 48 live, no faults ([Seeded 0.0]), 10M slots. *)

val validate_config : config -> unit
(** @raise Invalid_argument on non-positive epoch length / pivot budget,
    negative retries or [Seeded] intensity, or a bad admission config. *)

type stats = {
  arrived : int;  (** coflows drawn from the source *)
  admitted : int;
  rejected_queue : int;  (** backpressure rejections *)
  rejected_deadline : int;  (** deadline-infeasible rejections *)
  completed : int;
  twct : float;  (** sum of weight x absolute completion over completed *)
  slots : int;  (** simulated slots actually served (idle jumps excluded) *)
  epochs : int;
  idle_jumps : int;  (** event-driven skips to the next arrival *)
  tier_slots : (Core.Resilient.tier * int) list;
      (** slots served per tier, in {!Core.Resilient.all_tiers} order *)
  degradations : int;  (** epochs planned below the primary LP tier *)
  slo_degradations : int;  (** of which: SLO pressure (live set too big) *)
  reaction_degradations : int;
      (** of the SLO degradations: epochs pushed over the bar only by a
          raised [degrade_notch] — the alert-driven reaction at work *)
  lp_failures : int;  (** LP attempts lost to budget *)
  lp_iterations : int;  (** pivots across successful epoch solves *)
  deadline_misses : int;  (** admitted coflows that finished past deadline *)
  max_live : int;  (** live-set high-water mark (<= admission.max_live) *)
  max_live_epoch : int;  (** 0-based epoch index where [max_live] was hit *)
  bound_sum : float;
      (** sum over completed coflows of weight x (arrival + rho): each
          term lower-bounds that coflow's weighted completion (it cannot
          finish before its own isolation load drains), so the sum is a
          certified per-run lower bound on [twct] — the denominator of the
          telemetry layer's TWCT-vs-bound burn rate *)
  audited_slots : int;  (** slots certified by the incremental auditor *)
  audit_violation : (int * string) option;
      (** first violation as (absolute slot, message); [None] on a clean
          run.  A violation stops the run at that slot. *)
  wait_p50 : int;
  wait_p99 : int;
      (** admission-to-first-service latency percentiles, slots, computed
          from the run's own bucket counts (same quantization as
          {!Obs.Histogram}), so they are exact replay-deterministic values
          even when profiling is off *)
  fingerprint : string;  (** rolling digest of every decision in order *)
}

type epoch_view = {
  ev_epoch : int;  (** 0-based index of this executed epoch *)
  ev_start : int;  (** absolute slot at which the epoch began *)
  ev_now : int;  (** absolute slot after the epoch's serving *)
  ev_slots : int;  (** slots served this epoch ([ev_now - ev_start]) *)
  ev_tier : Core.Resilient.tier;  (** the tier that planned this epoch *)
  ev_live_before : int;  (** live set entering the epoch (post-admission) *)
  ev_live_after : int;  (** live set surviving into the next epoch *)
  ev_backlog : int;  (** residual demand units carried forward *)
  ev_units_served : int;  (** demand units drained this epoch *)
  ev_demand_surplus : int;
      (** units by which the epoch's books do not balance:
          [backlog_end + units_served - backlog_start].  Zero on a clean
          epoch; strictly positive exactly when a fault {e grew} demand in
          place mid-epoch (a straggler inflating a transfer), so this is
          the fault signal the demand-surplus alert rule watches. *)
  ev_port_spread : int;
      (** min(active ingress ports, active egress ports) over the carried
          residual demand — an upper bound on the parallelism the live
          set could use next epoch.  Distinguishes a serialized fabric
          (high spread, low units/slot: a fault) from concentrated demand
          (spread 1 drains at 1 unit/slot {e optimally}). *)
  ev_fault_events : int;  (** events in this epoch's fault plan *)
  ev_stats : stats;
      (** the run's stats as of the epoch's end, built as {!run} builds
          its result (a violation stops the run, so an [audit_violation]
          there ended this epoch) *)
  ev_decision_fingerprint : string;
      (** rolling digest of admission / rejection / completion decisions
          only — no tiers or slot counts — so the watchdog can tell
          "decisions frozen" apart from "time passing" *)
}
(** What an observer sees at the end of each executed epoch: the epoch's
    own flow accounting plus the run's {!stats} so far.  Idle jumps
    between arrivals do not produce views. *)

val run :
  ?plan_seed:int ->
  ?batch:bool ->
  ?observer:(epoch_view -> unit) ->
  config ->
  Arrivals.t ->
  coflows:int ->
  stats
(** [run config source ~coflows] consumes up to [coflows] arrivals from
    [source] (fewer if a replay source is exhausted), serves until every
    admitted coflow completes, and returns the run's statistics.
    [plan_seed] (default 0) seeds the per-epoch fault plans.

    [observer] is called once per executed epoch with that epoch's
    {!epoch_view}, after serving and completion-retirement but before the
    next admission round.  It is read-only telemetry: the loop's
    decisions, stats and fingerprint are identical with or without it
    (E20 asserts this byte-for-byte).

    Each epoch is served by {!Core.Policy.greedy_matching} over a
    {!Core.Policy.live_slice} of its order and the injector's compiled
    fault state.  [batch] (default on) enables event-driven serving: the
    clock jumps a whole run of identical slots in one
    {!Switchsim.Simulator.step_batch}, capped at the epoch's end and the
    next fault-state change ({!Faults.Fault_plan.stable_until}); the step
    stops it sooner at a demand zero or a release and returns its size,
    and the incremental auditor certifies it via
    {!Faults.Audit.feed_many}, one fault window at a time.
    Stats, epoch views and fingerprint are identical either way —
    [batch:false] is the slot-by-slot reference the equivalence tests
    use.
    @raise Failure when [max_slots] is exhausted. *)

(** First-class slot policies — the one shape every scheduler in the repo
    (the paper's Algorithm 2 cases, the non-LP baselines, the online and
    decentralized heuristics, the fault-resilient chain) is expressed in,
    and the unit {!Engine.run} executes.

    A policy is a {e recipe}: [prepare sim] builds the per-run mutable
    state and returns the stepper the engine drives, so one policy value
    can be run any number of times (and concurrently, each run owning its
    state).  A new policy is ~30 lines: a [next_slot] function and,
    optionally, a batched [next_batch], instead of a hand-rolled copy of
    the slot loop and its result bookkeeping.  Work a policy does around
    its decision (a fault clock and re-planning, as in {!Resilient})
    lives inside those functions; {!recorded} keeps its transcript. *)

type stepper = {
  next_slot : Switchsim.Simulator.t -> Switchsim.Simulator.transfer list;
      (** the per-slot decision the simulator validates and commits *)
  next_batch :
    (Switchsim.Simulator.t ->
    max_n:int ->
    Switchsim.Simulator.transfer list * int)
    option;
      (** event-driven decision: the slot's transfers plus a cap
          ([1 <= cap <= max_n]), the policy's own boundary only — a BvN
          matching's slot budget, a fault window, [max_n] when nothing of
          its own ends the batch.  When present the engine hands it to
          {!Switchsim.Simulator.run}, whose batch step stops sooner at a
          release or an emptied entry; otherwise [next_slot] runs as a
          batch of one.  Schedules, totals and events must come out
          identical either way ({!unbatched}); only the decision count
          differs. *)
  committed : int -> unit;
      (** called with the [n] slots the simulator committed each
          [next_batch] decision for: where accounting that depends on [n]
          (matching reuse, backfill, a transcript) lives.  A [next_slot]
          decision covers one slot and accounts for itself. *)
  matchings : unit -> int;
      (** matchings built so far, folded into {!Engine.result} *)
}

type t = {
  describe : string;  (** human-readable label, e.g. ["HLP (d)"] *)
  prepare : Switchsim.Simulator.t -> stepper;
}

val make : describe:string -> (Switchsim.Simulator.t -> stepper) -> t

val stepper :
  ?next_batch:
    (Switchsim.Simulator.t ->
    max_n:int ->
    Switchsim.Simulator.transfer list * int) ->
  ?matchings:(unit -> int) ->
  (Switchsim.Simulator.t -> Switchsim.Simulator.transfer list) ->
  stepper
(** Stepper with defaults: zero matchings, no batched decision (the
    engine runs [next_slot] as a batch of one), nothing to do after a
    commit. *)

val describe : t -> string

val unbatched : t -> t
(** The same policy without its batched decision: every prepared stepper
    offers [next_slot] only, so {!Engine.run} takes one decision per
    slot.  The slot-by-slot reference that batched runs are checked
    against. *)

val recorded : Switchsim.Recorder.log -> t -> t
(** The same policy, with each decision a prepared stepper takes added to
    [log]: [next_slot] adds one slot, [next_batch] the [n] slots
    [committed] reports.  A log serves one run, so prepare the result
    once; {!Switchsim.Recorder.contents} is then the run's transcript. *)

val stateless :
  describe:string ->
  (Switchsim.Simulator.t -> Switchsim.Simulator.transfer list) ->
  t
(** A policy whose decision depends only on simulator state — [prepare]
    allocates nothing. *)

val greedy_matching :
  ?init:Switchsim.Simulator.transfer list ->
  ?faults:Faults.Fault_plan.state ->
  Switchsim.Simulator.t ->
  priority:int array ->
  Switchsim.Simulator.transfer list
(** Order-respecting greedy maximal matching: scan released, unfinished
    coflows in [priority] order and claim free port pairs from their
    remaining demand.  [init] (default empty) marks already-claimed pairs —
    work-conserving extensions pass the partial slot and get it extended;
    new transfers are consed onto it.  This is the shared core of
    {!Baselines.greedy}, the scheduler's backfill paths, the online
    rules and fault-aware service.

    The result is exactly the entry-by-entry scan: fabrics in
    [Net.by_rate] order, then [priority], then source ascending, then
    destination ascending; one claim per (coflow, src) row per fabric; no
    (coflow, src, dst) entry on two fabrics; once a fabric's core budget
    is spent, rack-local pairs only.  A fabric's scan stops when all its
    sources or destinations are claimed.

    [faults] serves under a compiled fault plan, refreshed here at
    [Simulator.now sim]: down ports start out claimed, a dead fabric has
    every port claimed, off-duty links are masked out of each row, and
    the pooled {!Faults.Fault_plan.core_budget} caps, on top of the
    per-fabric budgets, every transfer that
    {!Faults.Fault_plan.core_counts} names ([init] spends it too); once
    it is spent, fabrics without a core cap take nothing more and the
    others rack-local pairs only.  The result is then the entry-by-entry
    scan that skips every pair the plan's list queries forbid.  Without
    [faults] nothing is masked.

    Cost: O(entries examined + candidate sources · words).  A call
    allocates its transfers (8 words each) and O(k · words) scratch,
    nothing per coflow or candidate.  The [policy.coflows_visited]
    counter grows by the number of [priority] entries examined, summed
    over fabrics.  Entries that are unreleased or finished still count,
    so callers that can should pass only live coflows (see
    {!of_priority}). *)

type live_view
(** A per-run memo of the live part of a priority slice — see
    {!live_slice}.  Not shared between runs or domains. *)

val live_view : unit -> live_view
(** An empty view; its first {!live_slice} builds it. *)

val live_slice :
  live_view -> Switchsim.Simulator.t -> int array -> pos:int -> int array
(** [live_slice v sim priority ~pos] — the released, unfinished entries of
    [priority.(pos) ..], in order: the candidates {!greedy_matching} can
    serve, so it decides over them exactly as over the whole slice.  The
    result is rebuilt, in O(slice), only when [priority] (physically),
    [pos], {!Switchsim.Simulator.released_count} or
    {!Switchsim.Simulator.unfinished_count} differ from the previous
    call's; otherwise the previous array is returned.  Both sets are
    monotone within a run, so for a fixed slice that is once per release
    or completion event.  The result and the arrays read at rebuilds must
    not be mutated during a run. *)

val of_priority : describe:string -> int array -> t
(** The simplest policy: greedy matching under one fixed priority,
    batched with cap [max_n] — nothing of its own ends a batch, so the
    simulator's release and demand bounds size it.  Each run's stepper
    decides over a {!live_slice} of the whole priority, so a decision
    costs O(live coflows + candidates) while the transfers are those of
    {!greedy_matching} over the whole array. *)

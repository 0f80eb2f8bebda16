(** Scripted, seeded fault plans for the switch simulator.

    A plan is a list of timed events describing runtime degradation of the
    [m x m] switch and of the workload information the scheduler relies on:
    port outages, per-link slowdowns, core-capacity degradation (see
    {!core_budget}), straggler coflows whose
    remaining demand inflates mid-run, delayed releases, and solver
    outages that knock out tiers of the scheduling stack.  A plan is a
    value with no text format: a caller writes its events with {!make}
    or draws them with {!random}, and {!validate} holds the event rules.

    Slot indexing matches [Switchsim.Simulator.now] {e before} a step: an
    event with interval [[from_, until)] affects exactly the slots whose
    pre-step clock lies in the interval.  The per-slot list queries are
    pure, so a plan can be replayed or audited independently of any
    simulator; serving reads a {!state} compiled from the plan instead. *)

type event =
  | Port_down of { port : int; from_ : int; until : int }
      (** Both the ingress and egress side of [port] are unusable. *)
  | Link_degraded of {
      src : int;
      dst : int;
      from_ : int;
      until : int;
      period : int;
    }
      (** Link [(src, dst)] carries at most one unit every [period >= 2]
          slots (usable only when [slot mod period = 0]). *)
  | Core_degraded of { from_ : int; until : int; capacity : int }
      (** The core carries at most [capacity] transfers per slot:
          inter-rack transfers on an oversubscribed
          ({!Switchsim.Net.two_tier}) fabric, every transfer on a
          non-blocking one (aggregate switch degradation). *)
  | Straggler of { coflow : int; at : int; factor : int }
      (** At slot [at], the remaining demand of [coflow] is multiplied by
          [factor >= 2] (skipped if the coflow already completed). *)
  | Release_delay of { coflow : int; delay : int }
      (** The coflow's release date is pushed [delay > 0] slots later. *)
  | Solver_outage of { from_ : int; until : int; full : bool }
      (** The LP tier of the scheduler is unavailable; with [full] the
          demand-statistics plane is also gone, so only arrival order
          remains computable. *)
  | Fabric_down of { fabric : int; from_ : int; until : int }
      (** An entire parallel fabric of a {!Switchsim.Net} is unusable —
          no transfer may be routed over it during the interval.  Only
          meaningful on multi-fabric nets; fabric 0 of a single-fabric
          net cannot be taken down (the plan would be unservable). *)

type t

val empty : t

val make : event list -> t

val events : t -> event list

val is_empty : t -> bool

val validate :
  ?fabrics:int -> ports:int -> coflows:int -> t -> (unit, string) result
(** Structural check of every event against the instance geometry: the
    one home of the event rules (intervals start at a slot [>= 0] and are
    non-empty, a period and a straggler factor are at least 2, a delay is
    positive, a capacity is not negative, and every port, coflow and
    fabric index is in range).  [fabrics] (default [1]) bounds
    [Fabric_down] indices.  The error names the first offending event. *)

(** {2 Per-slot queries} *)

val port_down : t -> slot:int -> int -> bool

val link_period : t -> slot:int -> src:int -> dst:int -> int
(** Max active degradation period for the pair, [1] when healthy. *)

val link_usable : t -> slot:int -> src:int -> dst:int -> bool

val core_capacity : t -> slot:int -> int option
(** Tightest active core cap, [None] when undegraded. *)

val fabric_down : t -> slot:int -> int -> bool
(** [fabric_down t ~slot f] iff some event takes fabric [f] down at
    [slot].  [port_down], [link_period], [link_usable] and [fabric_down]
    allocate nothing, so the audit can evaluate them in every fault
    window it certifies. *)

val solver_outage : t -> slot:int -> [ `None | `Lp_only | `Full ]

val release_delay : t -> int -> int
(** Total release delay of coflow [k] across the plan. *)

val stragglers : t -> (int * int * int) list
(** [(at, coflow, factor)] sorted by slot — the injector's event feed. *)

val boundaries : t -> int list
(** Sorted slots at which any fault begins, ends or fires — the re-planning
    triggers of {!Core.Resilient}. *)

(** {2 Compiled state}

    The serving part of a plan at one slot, compiled against a
    {!Switchsim.Net} into bitsets a matching kernel reads word by word:
    which ports are up, which links are off their duty cycle, which
    fabrics are dead, and the pooled core budget.  The kernel is
    {!Core.Policy.greedy_matching} [?faults]; the injector's validate
    hook reads the same state.  A state describes every slot of a window
    [[slot, stable_until)].  {!refresh} recomputes it, in O(events +
    ports * words), only for a slot outside that window, so queries in
    any slot order stay correct and a run pays once per fault-state
    change.  Solver outages and release delays are not serving state.
    {!Injector} compiles the plan without the slow links on pairs
    no coflow of the run has demand on, so its state answers for the
    carried pairs only; the list queries, {!boundaries} and the audit
    keep reading the full plan. *)

type state

val compile :
  carried:(src:int -> dst:int -> bool) ->
  coflows:int ->
  t ->
  Switchsim.Net.t ->
  state
(** A fresh state for a run of [coflows] coflows; the first {!refresh}
    computes it.  Only the {!Link_degraded} events of pairs [carried]
    accepts are compiled; every other event is.
    @raise Invalid_argument if the plan fails {!validate} against the
    net's ports and fabrics and [coflows]. *)

val refresh : state -> slot:int -> unit
(** Make the state describe [slot]; a no-op while [slot] stays in the
    current window.  The readers below describe the last refreshed
    slot. *)

val stable_until : state -> int
(** The first slot after the refreshed one at which the state can
    change: an interval edge of a port, link, core or fabric event, an
    active slow link's next duty flip (by the pair's largest period, as
    in {!link_period}), or a straggler's [at].  [max_int] when nothing is
    left to change, which is always the case for the empty plan. *)

val port_up_word : state -> int -> int
(** Word [w] ({!Matrix.Bits} layout) of the ports-up bitset: bit [p] is
    set iff [not (port_down plan ~slot p)]. *)

val off_duty_word : state -> src:int -> int -> int
(** Word [w] of source [src]'s off-duty destinations: bit [d] is set iff
    [not (link_usable plan ~slot ~src ~dst:d)]. *)

val fabric_dead : state -> int -> bool
(** [fabric_down plan ~slot f]. *)

val core_budget : state -> int
(** The pooled core budget [min (sum_f base_f) cap]: [base_f] is fabric
    [f]'s core capacity, or its port count when it is non-blocking, and
    [cap] the tightest active {!Core_degraded} capacity (the sum alone
    when there is none).  The transfers that spend it are those
    {!core_counts} names. *)

val core_counts :
  Switchsim.Net.t -> fabric:int -> src:int -> dst:int -> bool
(** Whether a transfer spends the pooled core budget: it crosses the core
    of an oversubscribed fabric, or rides a fabric without a core cap
    (aggregate switch degradation). *)

(** {2 Seeded plans} *)

val random :
  ?intensity:float ->
  ?fabrics:int ->
  ports:int ->
  coflows:int ->
  horizon:int ->
  Random.State.t ->
  t
(** Seeded random plan whose event count scales with [intensity] (default
    [1.0]; [0.0] is the empty plan).  With [fabrics > 1] (default [1]) a
    whole-fabric outage may additionally appear from intensity [0.5];
    plans for single-fabric nets are byte-identical per seed regardless.  Every generated interval is finite and
    no fault outlives roughly [2 * horizon], so any work-conserving policy
    still completes.  Outages of the solver stack appear from intensity
    [0.75] (LP only) and [1.5] (full).  @raise Invalid_argument on negative
    intensity. *)

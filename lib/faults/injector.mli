(** Wires a {!Fault_plan} into a {!Switchsim.Simulator}.

    The injector owns three jobs:
    - {b enforcement}: the simulator is created with a [validate] hook that
      rejects any slot using a dead port, a degraded link off its duty
      cycle, or more (core) transfers than the degraded capacity allows —
      so a policy cannot cheat the faults any more than it can cheat the
      matching constraints;
    - {b the fault clock}: {!tick}, called once per slot before the policy,
      fires due straggler events by growing remaining demand in place
      (release delays are folded into the release dates at creation);
    - {b fault-aware service}: {!greedy_policy} is the work-conserving
      priority matching that only claims currently-usable port pairs.

    Any existing per-slot policy can run against any plan: pass
    [sim injector] to it and let the validate hook arbitrate. *)

type t

val create :
  ?net:Switchsim.Net.t ->
  plan:Fault_plan.t ->
  ports:int ->
  (int * Matrix.Mat.t) list ->
  t
(** Build the faulted simulator on [net] (default
    {!Switchsim.Net.single}).  Core-capacity degradation tightens the
    per-slot core budget (see {!effective_capacity}); the plan may contain
    {!Fault_plan.Fabric_down} events, which the validate hook enforces and
    {!greedy_policy} routes around.
    @raise Invalid_argument if the plan fails {!Fault_plan.validate} or
    the net's port count disagrees with [ports]. *)

val sim : t -> Switchsim.Simulator.t

val plan : t -> Fault_plan.t

val tick : t -> unit
(** Apply every fault event due at the current slot (idempotent per slot;
    call exactly once before querying a policy). *)

val pair_ok : t -> slot:int -> src:int -> dst:int -> bool
(** Both ports up and the link on its duty cycle. *)

val effective_capacity : t -> slot:int -> int
(** Core budget for the slot: the sum over fabrics of each fabric's core
    capacity (its port count when non-blocking), tightened by any active
    {!Fault_plan.Core_degraded} event.  A transfer counts against it iff
    it crosses the core of an oversubscribed fabric, or rides a
    non-blocking one (aggregate switch degradation). *)

val check_slot :
  net:Switchsim.Net.t ->
  plan:Fault_plan.t ->
  slot:int ->
  Switchsim.Simulator.transfer list ->
  (unit, string) result
(** The pure fault-feasibility check one slot must pass — shared with
    {!Audit.check} so the auditor re-derives the constraints rather than
    trusting the injector. *)

val greedy_policy :
  t -> int array -> Switchsim.Simulator.t -> Switchsim.Simulator.transfer list
(** Fault-aware maximal matching in the given coflow priority order; on a
    multi-fabric net the sweep runs once per surviving fabric, fastest
    first, never serving the same (coflow, src, dst) entry twice in one
    slot. *)

val run : ?max_slots:int -> t -> priority:int array -> unit
(** Tick + greedy-serve until completion.  @raise Failure when [max_slots]
    (default [10_000_000]) is exhausted — e.g. a hand-written plan that
    never lifts an outage. *)

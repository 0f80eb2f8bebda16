(** Wires a {!Fault_plan} into a {!Switchsim.Simulator}.

    The injector owns two jobs:
    - {b enforcement}: the simulator is created with a [validate] hook that
      rejects any slot using a dead port or fabric, a degraded link off
      its duty cycle, or more (core) transfers than the degraded capacity
      allows — so a policy cannot cheat the faults any more than it can
      cheat the matching constraints — and any batch that would run past
      the next fault-state change;
    - {b the fault clock}: {!tick}, called before every decision,
      refreshes the compiled fault state and fires due straggler events by
      growing remaining demand in place (release delays are folded into
      the release dates at creation).

    Both read the plan's {!Fault_plan.state}, compiled once per run from
    the plan without its slow links on {e uncarried} pairs, those no
    coflow handed to {!create} has demand on.  Demand support never grows
    within a run ({!tick}'s stragglers scale existing entries), the
    kernel reads a row's off-duty bits only through its support, and a
    transfer on a pair without demand is refused by the simulator's own
    validation: such a link can change no decision and no verdict, so its
    duty flips need not end a batch.  {!plan} and the hook's messages
    still read the full plan.
    Fault-aware service is {!Core.Policy.greedy_matching} with
    [~faults:(faults injector)]; any other per-slot policy can run against
    any plan too: pass [sim injector] to it and let the validate hook
    arbitrate. *)

type t

val create :
  ?net:Switchsim.Net.t ->
  plan:Fault_plan.t ->
  ports:int ->
  (int * Matrix.Mat.t) list ->
  t
(** Build the faulted simulator on [net] (default
    {!Switchsim.Net.single}).  Core-capacity degradation tightens the
    per-slot core budget (see {!Fault_plan.core_budget}); the plan may
    contain {!Fault_plan.Fabric_down} events, which the validate hook
    enforces.
    @raise Invalid_argument if the plan fails {!Fault_plan.validate}, the
    net's port count disagrees with [ports], or a coflow's straggler
    factors, multiplied into its total demand, would exceed [max_int]
    (the message names the factor and the coflow). *)

val sim : t -> Switchsim.Simulator.t

val plan : t -> Fault_plan.t

val faults : t -> Fault_plan.state
(** The run's compiled fault state, which the validate hook reads; pass it
    to {!Core.Policy.greedy_matching}.  It answers for carried pairs: an
    uncarried pair reads as on duty, and its duty flips do not bound
    {!Fault_plan.stable_until}.  A caller that grows demand onto a new
    pair ({!Switchsim.Simulator.add_demand}) leaves that guarantee. *)

val tick : t -> unit
(** Refresh the compiled state at the current slot and apply every fault
    event due there (idempotent per slot; call exactly once before
    querying a policy). *)

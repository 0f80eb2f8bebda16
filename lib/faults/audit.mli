(** Independent certification of a faulted run's transcript.

    {!check} certifies a {!Switchsim.Recorder.t} — the transfers each slot
    committed — against the fault plan it ran under.  It re-derives the
    fault constraints from the plan's raw event list (the {!Fault_plan}
    list queries, never the compiled {!Fault_plan.state} the injector
    enforces) and certifies that no transfer ever used a dead port or
    fabric, rode a degraded link off its duty cycle, or exceeded the
    degraded (core) capacity — independently of the simulator and the
    injector that produced the transcript, so a buggy injector cannot
    certify itself. *)

val check :
  ?net:Switchsim.Net.t ->
  plan:Fault_plan.t ->
  Switchsim.Recorder.t ->
  (unit, string) result
(** Certify the transcript against the plan on [net] (default
    {!Switchsim.Net.single}): per-slot matching constraints plus every
    fault constraint.  On a multi-fabric net port exclusivity is checked
    per fabric, fabric indices are bounded, and no (coflow, src, dst)
    entry may be served on two fabrics in one slot; on an oversubscribed
    fabric only core-crossing transfers count against a degraded core.
    [Error] carries the first violation with its slot number. *)

(** {2 Incremental certification}

    A long-lived run cannot afford to accumulate its whole transcript and
    certify at end-of-run: a violation would surface hours after the
    offending slot, and the transcript would grow without bound.  A
    {!checker} certifies one slot's transfers at a time in O(ports)
    memory; the first violation is reported at the slot that committed it
    and latched, so every later {!feed} returns the same error.  A
    certified slot allocates nothing.  {!check} is itself implemented as
    a fold over a checker. *)

type checker

val checker :
  ?net:Switchsim.Net.t ->
  ?start_slot:int ->
  plan:Fault_plan.t ->
  ports:int ->
  unit ->
  checker
(** [start_slot] (default 0) is the plan-time of the first slot fed —
    an epoch-based service audits each epoch against the epoch's plan
    starting at the epoch's first slot.  [net] as in {!check}.
    @raise Invalid_argument on non-positive ports, a negative start slot,
    or a net over a different port count. *)

val feed :
  checker -> Switchsim.Simulator.transfer list -> (unit, string) result
(** Certify the next slot ([feed_many ~slots:1]).  [Error] carries the
    first violation (this slot's, or an earlier latched one) with its slot
    number. *)

val feed_many :
  checker ->
  Switchsim.Simulator.transfer list ->
  slots:int ->
  (unit, string) result
(** [feed_many c transfers ~slots] certifies [slots >= 1] consecutive slots
    that all committed the same transfers — the shape the event-driven
    (batched) serving loop produces.  The matching constraints do not
    depend on the slot, so they are checked once, at the first slot.  The
    fault constraints are checked once per {e fault window}: a window
    starting at slot [s] ends at the batch's end, at the next [from_] or
    [until] after [s] of any port, link, core or fabric event, or after
    [s] alone when a served pair's link is degraded at [s].  Within a
    window every input of those checks holds still, so each slot gets
    the verdict {!feed} would give it: the verdict, message,
    {!checked_slots} and {!checker_error} are exactly those of [slots]
    calls of {!feed}, a violation being reported at its first failing
    slot.  An empty plan's window is the whole batch.  Like {!feed}, a
    certified batch allocates nothing.
    @raise Invalid_argument when [slots < 1]. *)

val checked_slots : checker -> int
(** Slots fed so far. *)

val checker_error : checker -> string option
(** The latched first violation, if any. *)

(** Admission control for the scheduler service: per-coflow deadline/SLO
    tagging, queue-depth backpressure, and reject-and-count when saturated.

    The service cannot accept unbounded work: a live set that grows without
    limit defeats both the LP re-solve (whose cost grows with the live set)
    and any memory ceiling.  Admission applies two gates, in order:

    + {b backpressure}: when the live set already holds [max_live] coflows
      the arrival is rejected outright ([Queue_full]) — the bound that
      makes the service's memory a constant;
    + {b deadline feasibility}: each admitted coflow is tagged with a
      deadline [now + slack + ceil (factor * rho (D))], where [rho (D)]
      (the demand's maximum port load, {!Matrix.Mat.load}) is the minimal
      slots the coflow needs in isolation — the shape of the
      SEBF-with-admission deadlines in coflowsim's evaluation.  An arrival
      whose deadline cannot be met even by the crude estimate
      "current backlog drains at full fabric rate, then the coflow runs in
      isolation" is rejected ([Deadline_unmeetable]) rather than admitted
      to certain failure.

    Decisions are pure (no registry side effects); the epoch loop owns the
    counters so rejects are counted exactly once. *)

type config = {
  max_live : int;  (** live-set bound (backpressure), >= 1 *)
  deadline_factor : float;
      (** deadline multiplier over the isolation bound; [<= 0] disables
          deadline tagging and the feasibility gate entirely *)
  deadline_slack : int;  (** additive slack, slots, >= 0 *)
}

val default_config : config
(** [max_live = 64], [deadline_factor = 8.0], [deadline_slack = 32]. *)

val validate : config -> unit
(** @raise Invalid_argument on a non-positive [max_live] or negative
    [deadline_slack]. *)

type reason = Queue_full | Deadline_unmeetable

type decision =
  | Admit of { deadline : int option }
      (** absolute deadline slot; [None] when deadlines are disabled *)
  | Reject of reason

val isolation_bound : Matrix.Mat.t -> int
(** [rho (D)]: minimal completion slots in isolation (max port load). *)

val decide :
  config ->
  ports:int ->
  live:int ->
  backlog_units:int ->
  now:int ->
  Arrivals.coflow ->
  decision
(** [live] is the current live-set size, [backlog_units] the total
    remaining units of the live set (the backpressure signal the deadline
    estimate drains at [ports] units per slot). *)

(** Online coflow scheduling (the paper's headline open problem: "our
    algorithms are not on-line, as they require the solution of an LP to
    compute a global ordering").

    These policies never look at a coflow before its release date and keep
    no precomputed order: each slot they rank the currently-alive coflows
    by a myopic rule over their {e remaining} demand and serve an
    order-respecting greedy matching (fully preemptive, work-conserving).
    They are heuristics — no approximation guarantee is claimed — and exist
    to quantify how much the offline LP ordering is worth under arrivals
    (experiment E12). *)

type rule =
  | Weighted_bottleneck
      (** smallest remaining [rho (D)] over weight — an online, preemptive
          [H_rho] (SEBF with weights) *)
  | Weighted_remaining
      (** smallest remaining total bytes over weight — generalised SRPT *)
  | Arrival_order  (** FCFS over release dates — the non-clairvoyant floor *)

val rule_name : rule -> string

val all_rules : rule list

val run : rule -> Workload.Instance.t -> Scheduler.result
(** Runs through {!Engine.run} with the instance's weights. *)

val as_policy : weights:float array -> rule -> Policy.t
(** The rule as a first-class {!Policy.t} under per-coflow [weights]
    (indexed like the simulator's coflows). *)

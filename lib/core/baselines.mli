(** Non-LP baselines to compare the paper's algorithms against.

    These are deliberately simple policies without the BvN machinery:
    every slot they build a greedy maximal matching over the remaining
    demand ({!Policy.greedy_matching}), differing only in coflow priority.
    Each is exposed both as a {!Policy.t} (compose with {!Engine.run} or
    a custom simulator) and as a one-call runner. *)

val greedy_policy : Ordering.t -> Policy.t

val round_robin_policy : int -> Policy.t
(** [round_robin_policy n] rotates the priority over [n] coflows, one
    offset per slot; fresh offset per prepared run. *)

val max_weight_policy : weights:float array -> Policy.t

val sebf_madd_policy : coflows:int -> Policy.t

val greedy : Workload.Instance.t -> Ordering.t -> Scheduler.result
(** Greedy by fixed priority: scan coflows in the given order and claim free
    port pairs — an order-respecting work-conserving heuristic. *)

val fifo : Workload.Instance.t -> Scheduler.result
(** Greedy by trace order (arrival). *)

val round_robin : Workload.Instance.t -> Scheduler.result
(** Per-slot rotating priority over the released unfinished coflows —
    a fairness-first baseline that ignores weights entirely (the flow-level
    fair-sharing strawman from the paper's introduction). *)

val max_weight : Workload.Instance.t -> Scheduler.result
(** MaxWeight scheduling from the input-queued-switch literature the paper
    cites ([9, 24, 26, 31]): every slot serve the exact maximum-weight
    matching (Hungarian algorithm) where the weight of pair [(i, j)] is the
    best [w_k / remaining_k] among coflows needing that pair — a
    throughput-optimal policy that is nevertheless oblivious to coflow
    completion structure. *)

val sebf_madd : Workload.Instance.t -> Scheduler.result
(** A Varys-style rate-based heuristic (Chowdhury et al., the [13] the
    paper compares its model against): preemptive Smallest Effective
    Bottleneck First over the remaining demands, with MADD rate allocation
    (every flow of the head coflow paced to finish exactly at its
    bottleneck) and leftover port capacity backfilled to later coflows.
    Fractional rates are realised in integral slots by accumulating
    per-pair credit and serving a maximum-credit greedy matching, so the
    schedule stays feasible under the paper's matching constraints.
    Ignores weights, like Varys. *)

(** Chen's improved LP-free approximation (arXiv:2311.11296), which
    sharpens the Shafiee–Ghaderi constants to 4.36 with release dates
    and 3.61 without ([1 + sqrt 2 + eps], per the paper's abstract).

    Reconstruction note: the full paper is not in the reference set, so
    the implementation keeps the published interface — same backward
    primal-dual scheme, improved analysis — and realises the one
    structural refinement its abstract describes over single-port
    charging: the charging step considers the most loaded {e ingress}
    and the most loaded {e egress} jointly, so a coflow heavy on both
    bottleneck sides drains its residual twice as fast and is pushed
    later (see {!Approx_order.backward_order} with [charge = Port_pair]).
    The quoted constants are the paper's claims for its algorithm; the
    arena (E19) measures where this variant actually lands and the
    QCheck ratio property holds it to the claimed factor on small
    instances. *)

val order : Workload.Instance.t -> Ordering.t

val order_with_duals : Workload.Instance.t -> Ordering.t * float array

val guarantee : with_releases:bool -> float
(** [4.36] with release dates, [3.61] without (claimed). *)

val guarantee_for : Workload.Instance.t -> float

val policy : Workload.Instance.t -> Policy.t
(** Ordering + greedy backfilled list schedule, like {!Shafiee.policy}. *)

val run : Workload.Instance.t -> Engine.result

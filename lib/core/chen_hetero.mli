(** Coflow ordering for heterogeneous parallel networks
    (arXiv:2312.16413): the backward charging scheme of {!Chen} with the
    port loads read as {e drain times} over the aggregated per-port
    speed of the net — on [k] parallel fabrics with rates [r_1 .. r_k],
    a port moves [S = sum r_f] units per slot, so a release date
    pre-empts a charging step only when it exceeds [charge_load / S].

    Reconstruction note: as with {!Chen}, the full paper is not in the
    reference set.  The implementation keeps its published structure —
    the heterogeneous model is [k] parallel non-blocking switches with
    per-network speeds, and the ordering charges against aggregated
    bandwidth — and the arena (E21) measures where the variant lands
    against the rate-aware isolation lower bound rather than asserting
    the paper's constants.

    On [Net.single] (k = 1, rate 1) the order is bit-identical to
    {!Chen.order}. *)

val order : net:Switchsim.Net.t -> Workload.Instance.t -> Ordering.t

val order_with_duals :
  net:Switchsim.Net.t -> Workload.Instance.t -> Ordering.t * float array

val policy : net:Switchsim.Net.t -> Workload.Instance.t -> Policy.t
(** Ordering + greedy backfilled list schedule over the net's fabrics
    (fastest first), like {!Chen.policy}. *)

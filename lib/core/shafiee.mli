(** The Shafiee–Ghaderi combinatorial coflow algorithm
    (arXiv:1704.08357): an LP-free deterministic 5-approximation with
    release dates (4 without), the strongest polynomial guarantee among
    the purely combinatorial entries in the arena (E19).

    The algorithm has two halves, both reproduced here:

    + {b Ordering} — the backward sequencing rule over port loads: at
      each step charge residual weights on the most loaded port and
      place last the coflow whose residual hits zero first, {e unless}
      some remaining coflow's release date exceeds the port's remaining
      load, in which case that coflow is the unavoidable tail and goes
      last uncharged.  With zero release dates this reduces exactly to
      {!Primal_dual.order}.  See {!Approx_order.backward_order}.
    + {b Scheduling} — serve the coflows in that order with a
      work-conserving greedy list schedule (their "backfilling" of idle
      port pairs), here {!Policy.of_priority}, which also inherits the
      engine's batching and instrumentation.

    The guarantee applies to the combination; the grouped BvN scheduler
    of the source paper's Algorithm 2 is a different second half and is
    raced separately in the arena (as [H_pd (d)]). *)

val order : Workload.Instance.t -> Ordering.t
(** The Shafiee–Ghaderi permutation (first coflow served first). *)

val order_with_duals : Workload.Instance.t -> Ordering.t * float array
(** Also returns the final residual weights (positive exactly for the
    coflows placed by a release step or the zero-load fallback). *)

val guarantee : with_releases:bool -> float
(** The proven approximation factor: [5.0] with release dates, [4.0]
    without. *)

val guarantee_for : Workload.Instance.t -> float
(** {!guarantee} instantiated on whether the instance has any non-zero
    release date. *)

val policy : Workload.Instance.t -> Policy.t
(** Ordering + greedy backfilled list schedule as an engine policy. *)

val run : Workload.Instance.t -> Engine.result

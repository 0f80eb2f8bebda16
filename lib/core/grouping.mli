(** Coflow grouping — Step 2 of Algorithm 2.

    Following the order produced by the ordering stage, each coflow [k] is
    assigned to the geometric class containing its cumulative load [V_k];
    all coflows of a class are consolidated and cleared as one aggregated
    coflow.  The randomized variant replaces the fixed points [2^(l-1)] with
    randomly shifted points [t0 * a^(l-1)], [a = 1 + sqrt 2],
    [t0 ~ Unif [1, a]] (§3.2). *)

type t = int array array
(** Ordered groups of working indices; concatenating the groups yields the
    underlying coflow order. *)

val singletons : Ordering.t -> t
(** No grouping: one coflow per group (cases (a) and (b)). *)

val deterministic : ?speed:int -> Workload.Instance.t -> Ordering.t -> t
(** Classes [(2^(s-1), 2^s]] over [V_k] (cases (c) and (d)).  [speed]
    (default [1]) is the aggregate fabric rate of a heterogeneous net:
    classes are taken over the drain time [ceil (V_k / speed)] rather than
    the raw load, so a faster network consolidates more coflows per group.
    @raise Invalid_argument when [speed < 1]. *)

val randomized :
  a:float -> t0:float -> Workload.Instance.t -> Ordering.t -> t
(** Classes [(t0 * a^(l-2), t0 * a^(l-1)]].  @raise Invalid_argument unless
    [a > 1] and [1 <= t0]. *)

val golden_a : float
(** [1 + sqrt 2], the optimizing base from the paper's analysis. *)

val draw_t0 : Random.State.t -> float
(** [t0 ~ Unif [1, golden_a]]. *)

val group_count : t -> int

val members : t -> int -> int array

val flatten : t -> int array

(** Executable checks of the paper's structural results: every schedule the
    repository produces can be audited against the inequalities of §2–§3.
    Each check returns [Ok ()] or [Error msg] naming the violated bound. *)

type check = (unit, string) result

val lemma2_prefix_bound :
  Workload.Instance.t -> Ordering.t -> int array -> check
(** Lemma 2: for every prefix of the order, the cumulative load [V_k] is at
    most the time at which all of coflows [1 .. k] have completed — a
    validity check that applies to {e any} schedule's completion vector. *)

val lemma3_lp_bound : Workload.Instance.t -> Lp_relax.result -> check
(** Lemma 3 (via Appendix C): [V_k <= max (4, (16/3) * C-bar_k)] along the
    LP order, for every [k] with [V_k > 0].  The [max 4] term covers the
    boundary the paper's proof leaves implicit: when the LP finishes a
    prefix inside the first interval, [C-bar] can be arbitrarily small
    (even 0) while [V_k] is up to [2 * tau_2 = 4]. *)

val proposition1_bound :
  Workload.Instance.t -> Ordering.t -> int array -> check
(** Proposition 1 {e as stated in the paper}: the grouped schedule satisfies
    [C_k (A) <= max_(g <= k) r_g + 4 V_k] for all [k].

    Reproduction finding: with non-zero release dates this literal statement
    is {e false} for Algorithm 2 as written — a group only starts once all
    its members are released, so an early coflow classed with a
    late-arriving one can overshoot its own bound arbitrarily (the paper's
    "simple induction" skips this case).  With all releases zero the bound
    is correct and this check must pass.  See
    {!proposition1_grouped_bound} for the variant that actually holds. *)

val proposition1_grouped_bound :
  Workload.Instance.t -> Grouping.t -> int array -> check
(** The corrected group-level Proposition 1, which Algorithm 2 does satisfy
    with arbitrary release dates: for every group [S_u] with last member at
    order position [last],
    [C_k (A) <= max_(g <= last) r_g + 4 V_(last)] for all [k] in [S_u].
    (Theorem 1's constant survives in the release-free case either way.) *)

val randomized_draw_bound :
  a:float ->
  Workload.Instance.t ->
  Grouping.t ->
  int array ->
  check
(** The per-draw guarantee behind Proposition 2, for zero release dates:
    with classes built on points [t0 * a^(l-1)], every draw satisfies
    [C_k <= (a^2 / (a - 1)) * V_(last (S_u))] for [k] in [S_u] (the group-
    level form, for the same reason as {!proposition1_grouped_bound}).
    With [a = 1 + sqrt 2] the constant is [~4.121]. *)

val theorem1_ratio :
  Workload.Instance.t -> Lp_relax.result -> twct:float -> float
(** The measured total weighted completion time divided by the LP lower
    bound — by Lemma 1 an {e upper} bound on the true approximation ratio.
    Theorem 1 guarantees the grouped LP-ordered schedule keeps this below
    [67/3] ([64/3] when all release dates are zero). *)

val deterministic_ratio_limit : with_releases:bool -> float
(** [67/3] or [64/3]. *)

(** Revised primal simplex on a product-form factored basis.

    Designed for the interval-indexed coflow relaxations: thousands of sparse
    columns, a few thousand rows.  The basis inverse is never formed.  At
    (re)factorization time a Markowitz-ordered sparse LU of the basis matrix
    is computed; between refactorizations each pivot appends one eta vector
    (product-form update), and FTRAN/BTRAN apply the factors plus the eta
    file, so per-iteration cost tracks factor fill rather than [nrows^2].
    The factors are rebuilt whenever the eta file reaches [refactor] entries
    or an update pivot looks numerically fragile; the rebuild also recomputes
    the basic solution from scratch, absorbing (and logging) any drift.

    The factorization works in flat arrays reused across factorizations on
    a domain: per column a (row, value) array pair with an exact count, per
    row a list of positions, and a scatter of the pivot column for the
    elimination.  Its pivot rule is a strict total order (smallest Markowitz
    score, then largest |v|, then smallest (row, position)) and every factor
    entry comes from the same floating-point operations in the same order,
    so the factors, and with them every pivot, solution, dual and exported
    basis, do not depend on how the entries are stored.  A small LP
    therefore costs about what its pivots cost.

    Pricing is partial (block scans with a rotating cursor) against the
    sparse BTRAN duals; a streak of degenerate pivots switches the rule to
    Bland's until progress resumes, which guarantees termination.

    A warm-start basis can be supplied to skip phase 1 entirely; the coflow
    LP builder uses the crash basis "every coflow finishes in the last
    interval", or, when it warm-starts, a greedy placement from its hints. *)

type warm_basis = int array
(** One entry per constraint row: a structural variable index to make basic
    on that row, or [-1] to use the row's own slack (only valid for
    inequality rows).  The proposed basis is verified — non-singularity and
    primal feasibility — and silently discarded in favour of the next start
    ([crash_basis], then a cold phase-1 start) if the check fails.  Only the
    set of columns matters: permuting entries across rows describes the same
    basis matrix. *)

val solve :
  ?max_iterations:int ->
  ?deadline:float ->
  ?warm_basis:warm_basis ->
  ?crash_basis:warm_basis Lazy.t ->
  ?refactor:int ->
  Model.t ->
  Solution.t
(** [solve m] minimises (or maximises) the model.  [max_iterations] defaults
    to [200_000] pivots across both phases; [refactor] (default [128]) bounds
    the eta-file length between factorizations.

    [warm_basis] is tried first, then [crash_basis]; each is validated and
    the first that yields a factorizable, primal-feasible basis skips
    phase 1.  [crash_basis] is forced only when [warm_basis] is absent or
    rejected, so a fallback that is expensive to build costs nothing while
    the warm proposals hold.  The returned {!Solution.t} carries the final basis (in the same
    format) and the factorization count, enabling warm-start chains across
    related solves.

    [deadline] is a real-time budget in seconds for the whole solve (both
    phases), checked every 32 pivots: when it expires the solver stops with
    {!Solution.Time_limit} and the best basis found so far.  A deadline of
    [0.] aborts before the first pivot — the hook the resilient scheduling
    loop uses to model a solver outage.  @raise Invalid_argument if
    negative.

    At [Optimal] the solution carries the dual multipliers of every original
    row, oriented so that strong duality reads
    [sum_r duals.(r) * rhs.(r) = objective - objective_constant] and
    complementary slackness holds: a row with a non-zero multiplier is tight
    at the optimum. *)

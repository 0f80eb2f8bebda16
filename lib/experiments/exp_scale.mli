(** E18: the paper's evaluation scale — 150 ports, 526 coflows.

    Runs the full 12-algorithm grid ({H_A, H_rho, H_LP} x cases (a)-(d))
    on an fb-like trace at exactly the paper's scale as one {!Arena} leg
    ([id "grid"], ranked against the isolation bound), and measures the
    win of the sparse event-driven fabric directly: an A/B section re-runs
    representative policies with batching forced off on the same
    instance — same TWCT and slots (asserted), only the wall clock
    differs.  The measured batched throughput is published on the
    [scale.batched_slots_per_sec] / [scale.unbatched_slots_per_sec] gauges
    (informational in obs-diff, like all wall-time metrics).

    The H_LP order comes from {!Arena.budgeted_hlp} under a fixed
    deterministic pivot budget; when the solve exhausts it the H_LP rows
    run H_rho and are named ["H_LP(fallback:H_rho) (a)"] etc. with
    [fallback = Some "H_rho"] — the experiment always completes and never
    attributes H_rho numbers to H_LP.

    The [stretch] flag adds a 10x-coflow-count leg (5260 coflows, batched
    greedy H_rho, raced alone after the A/B) — the scale the
    millions-of-coflows soak roadmap item needs. *)

val ports : int

val coflows : int

type t

val legs : t -> Arena.leg list
(** The 12-row grid leg ({H_A, H_rho, H_LP} x {a, b, c, d}, id ["grid"]),
    then the greedy H_rho stretch leg (id ["stretch"]) when it ran. *)

val lp_budget : int
(** The H_LP pivot budget (2000), shared with the E19 scale leg. *)

val instance : ?ports:int -> Config.t -> coflows:int -> Workload.Instance.t
(** The paper-scale fb-like instance (deterministic in the seed;
    paper-style random-permutation weights).  [ports] defaults to
    {!ports}; the E19 arena reuses this generator so its scale leg races
    on exactly the E18 population. *)

val run :
  ?stretch:bool ->
  ?jobs:int ->
  ?ports:int ->
  ?coflows:int ->
  ?lp_budget:int ->
  Config.t ->
  t
(** [jobs] parallelizes the 12 grid simulations; the A/B timing runs are
    always sequential (wall-clock must not share cores).  [ports],
    [coflows] and [lp_budget] default to the paper scale ({!ports},
    {!coflows}, 2000 pivots); tests shrink them to exercise both the
    full-solve and the budget-exhausted fallback paths cheaply. *)

val render : t -> string

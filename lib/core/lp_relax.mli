(** The paper's linear-programming relaxations (§2.1).

    Both relaxations drop the per-slot matching constraints and keep only
    aggregate load constraints per port and time point; both are solved with
    the in-repo revised simplex ({!Lp.Revised_simplex}).  The optimal value
    of either is a lower bound on the optimal total weighted completion
    time (Lemma 1), and the "approximated completion times" [C-bar_k]
    extracted from the optimal solution drive the [H_LP] coflow order
    (Eq. 14–15).

    - [solve_interval] is the polynomial-sized (LP): completion intervals
      [(tau_(l-1), tau_l]] with [tau_l = 2^(l-1)], objective coefficient
      [tau_(l-1)] (left endpoints).
    - [solve_time_indexed] is (LP-EXP): one variable per coflow and time
      slot, objective coefficient [t].  Exponential-sized in general — the
      paper solved it for a single configuration only; same here (guarded by
      [max_vars]). *)

type warm_hints = {
  h_basics : (int * float) list;
      (** basic completion variables, as (coflow index, grid time [tau_l]) *)
  h_slacks : (bool * int * float) list;
      (** basic load-row slacks, as (is_input, port, grid time [tau_l]) *)
}
(** The final simplex basis of a solve, described by coflow identity and
    completion {e time} rather than column/row numbers, so it can seed a
    related solve on a different grid (other [base]), with different
    weights, or on a residual instance (after {!remap_hints}).  The
    receiving solve translates the hints onto its own grid and validates the
    resulting basis; a rejected proposal silently falls back to the crash
    basis, so warm-starting never changes results — only iteration counts. *)

type result = {
  cbar : float array;  (** approximated completion time per working index *)
  order : int array;
      (** working indices sorted by [cbar] (quantized at 1e-6 so solver
          round-off cannot reorder equal completion times), ties by index —
          the order (15) *)
  lower_bound : float;
      (** optimal LP objective: a certified lower bound on
          [sum w_k C_k (OPT)] *)
  iterations : int;  (** simplex pivots spent *)
  refactors : int;  (** basis factorizations spent *)
  values : (int * int * float) list;
      (** non-zero [(k, l, x)] assignments, for audits *)
  warm : warm_hints option;
      (** final basis for warm-starting a related solve; [None] for
          trivial instances and when the solver could not export a clean
          basis *)
}

exception Too_large of string
(** Raised (by [solve_time_indexed]) when the formulation would exceed
    [max_vars] variables. *)

val remap_hints :
  ?index_map:(int -> int option) ->
  ?time_shift:float ->
  warm_hints ->
  warm_hints
(** [remap_hints ~index_map ~time_shift h] renumbers coflow indices
    ([index_map k = None] drops coflow [k]'s hints, e.g. coflows that
    completed before a re-plan) and shifts hint times by [-time_shift]
    (slack hints whose shifted time is [<= 0] are dropped).  Defaults:
    identity map, zero shift. *)

val solve_interval :
  ?max_iterations:int ->
  ?deadline:float ->
  ?warm_start:warm_hints ->
  Workload.Instance.t ->
  result
(** Build and solve (LP).  The solve starts from [warm_start] when given
    and valid, else from the greedy placement of its hints, or with no
    hints from the crash basis "every coflow completes in the last
    interval"; both are primal feasible by construction, so phase 1 is
    skipped either way.  [max_iterations] and [deadline] (seconds) bound
    the solve — see {!Lp.Revised_simplex.solve}.
    @raise Failure if the simplex stops on either budget before proving
    optimality. *)

val solve_interval_base :
  ?max_iterations:int ->
  ?deadline:float ->
  ?warm_start:warm_hints ->
  base:float ->
  Workload.Instance.t ->
  result
(** Generalised grid [tau_l = ceil (base^(l-1))] (duplicates skipped).
    [base = 2.0] is exactly {!solve_interval}; bases closer to 1 make the
    relaxation tighter and larger, quantifying the paper's open question of
    how much the geometric coarsening costs.  As [base -> 1] the program
    converges to (LP-EXP).  [max_iterations], [deadline] and [warm_start]
    behave as in {!solve_interval}.  @raise Invalid_argument unless
    [base > 1]. *)

val solve_time_indexed :
  ?max_iterations:int ->
  ?deadline:float ->
  ?max_vars:int ->
  Workload.Instance.t ->
  result
(** Build and solve (LP-EXP); [max_vars] defaults to [100_000].
    Zero-demand coflows stay out of the model: each completes on arrival
    and contributes exactly [w * r] to the bound. *)

type formulation =
  | Interval of float
      (** (LP) on the grid of {!solve_interval_base} with this [base];
          [Interval 2.0] is {!solve_interval}'s *)
  | Time_indexed  (** (LP-EXP), as {!solve_time_indexed} builds it *)

type relaxation = {
  model : Lp.Model.t;
  decode : Lp.Solution.t -> result;
      (** reads a solution of [model] as the solve functions read theirs:
          [iterations], [refactors] and [warm] are whatever the solver
          reports.  @raise Failure unless the solution is [Optimal]. *)
}

val relaxation : formulation -> Workload.Instance.t -> relaxation option
(** The seam between building and solving: the very model the solve
    functions hand to {!Lp.Revised_simplex.solve}, and their decoder, so a
    test can solve it with another solver and compare the results.
    [None] when the instance needs no LP (no coflow holds demand); the
    solve functions then return their result without a solve.
    {!solve_time_indexed}'s [max_vars] guard is not applied.
    @raise Invalid_argument on [Interval base] unless [base > 1]. *)

val interval_count : Workload.Instance.t -> int
(** The [L] used by [solve_interval]: smallest [L] with
    [2^(L-1) >= T], where [T] is the naive horizon. *)

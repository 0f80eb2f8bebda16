(** Result of a solve.  {!Revised_simplex} fills every field; a solver
    without a factored basis (the tests' dense tableau oracle) reports
    [refactors = 0] and no [duals] or [basis]. *)

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit
      (** The solver hit its iteration budget; [values] holds the best
          feasible point found (phase-2 iterates are always feasible). *)
  | Time_limit
      (** The solver hit its wall-clock deadline (see
          {!Revised_simplex.solve}); like [Iteration_limit], [values] holds
          the best feasible point found so far. *)

type t = {
  status : status;
  objective : float;
      (** Objective of the original model (maximization sign restored);
          meaningful for [Optimal] and [Iteration_limit]. *)
  values : float array; (** One value per model variable. *)
  iterations : int;
  refactors : int;
      (** Number of basis (re)factorizations performed, including the initial
          one. *)
  duals : float array option;
      (** One multiplier per original constraint row, when the solver
          computed them (currently {!Revised_simplex} at [Optimal]).  Signs
          follow the original row orientation, so strong duality reads
          [sum_r duals.(r) * rhs_r = objective] for models with a zero
          objective constant; see the solver documentation. *)
  basis : int array option;
      (** The final basis in {!Revised_simplex.warm_basis} format (one entry
          per constraint row: structural variable index, or [-1] for the
          row's own slack), suitable for warm-starting a related solve.
          [None] when an artificial remained basic or when the solve did
          not finish cleanly. *)
}

val value : t -> Model.var -> float

val status_to_string : status -> string

(** Two-phase full-tableau primal simplex, the tests' LP oracle.

    A deliberately simple reference implementation: Bland's pivoting rule
    throughout (no cycling, ever), the entire tableau kept dense.  Intended
    for small models and as the oracle that {!Lp.Revised_simplex} is tested
    against, on random LPs and on the coflow relaxations that
    {!Core.Lp_relax.relaxation} builds; do not feed it the full
    interval-indexed relaxation of a large trace. *)

val solve : ?max_iterations:int -> Lp.Model.t -> Lp.Solution.t
(** [solve m] runs both phases.  [max_iterations] (default [100_000]) bounds
    the total number of pivots across the two phases. *)

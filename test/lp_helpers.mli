(** Test-only helpers of the LP layer, and the oracle solve of the coflow
    relaxations. *)

val add_vars : Lp.Model.t -> int -> Lp.Model.var array
(** [add_vars m n] adds [n] fresh unnamed variables. *)

val residuals : Lp.Std_form.t -> float array -> float array
(** [residuals std x] is [A x - b] per row; a point is feasible when every
    [Le] row is [<= tol], every [Ge] row is [>= -tol] and every [Eq] row has
    absolute value [<= tol]. *)

val check_oracle :
  string ->
  Core.Lp_relax.formulation ->
  Workload.Instance.t ->
  Core.Lp_relax.result ->
  unit
(** [check_oracle label f inst r] solves the relaxation production
    solves ({!Core.Lp_relax.relaxation}[ f inst]) with {!Dense_simplex},
    reads the solution with the same decoder, and checks that the
    production result [r] has that bound, within 1e-6 relative, and that
    order.  Fails the test when the instance needs no LP. *)

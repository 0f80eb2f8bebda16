(** Computational standard form, the simplex's view of a model (the tests'
    dense tableau oracle reads it too).

    A model is lowered to

    {v  minimize  c . x + const,   A x  (<=|>=|=)  b,   x >= 0  v}

    with [A] stored column-wise and sparse, duplicate terms merged, and a
    maximization objective negated (a solver undoes the negation when
    reporting). *)

type sense = Le | Ge | Eq

type t = {
  nrows : int;
  ncols : int;
  col_rows : int array array; (** per column: row indices of the non-zeros *)
  col_vals : float array array; (** matching coefficient values *)
  obj : float array; (** minimization costs, length [ncols] *)
  obj_const : float;
  rhs : float array;
  senses : sense array;
  maximize : bool; (** the original model maximized; reported objective and
                       duals must be negated back *)
}

val of_model : Model.t -> t
(** Linear in the model's size.  A row's duplicate terms are summed in term
    order (the first one as [0.0 +. c]) and dropped when the sum is zero;
    each column lists its rows in ascending order. *)

val objective_value : t -> float array -> float
(** Objective of the original model (sign restored) at point [x]. *)

(** Presolve: cheap model reductions applied before the simplex.

    Implemented reductions (run to a fixed point):
    - {b empty rows}: [0 <= b] rows are dropped or declared infeasible;
    - {b singleton equality rows}: [a x = b] fixes [x = b / a] (infeasible
      when negative), and the fixing is substituted into every other row
      and the objective;
    - {b free columns}: a variable that appears in no remaining constraint
      is fixed at 0 when its (minimisation) cost is non-negative, and
      certifies unboundedness otherwise;
    - {b duplicate rows}: textually identical rows are deduplicated.

    The reduced model renumbers variables; {!restore} lifts a reduced
    solution back to the original variable space. *)

open Lp

type outcome =
  | Reduced of Model.t * reduction
  | Infeasible of string
  | Unbounded of string

and reduction

val reduce : Model.t -> outcome

val restore : reduction -> Solution.t -> Solution.t
(** Lift values (objective is already that of the original model —
    substitution keeps track of fixed contributions). *)

val stats : reduction -> string
(** Human-readable summary: rows dropped, variables fixed. *)

val solve : Model.t -> Solution.t
(** [reduce] + {!Revised_simplex.solve} + [restore]; the convenience entry
    point.
    Duals are not propagated through the reductions ([duals = None]). *)

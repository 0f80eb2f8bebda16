(** Linear-program modeling layer.

    A model owns a set of non-negative decision variables, a list of linear
    constraints and one linear objective.  All variables are implicitly
    bounded below by [0] (every LP in this project — the interval-indexed
    relaxation, LP-EXP, and the open-shop relaxations — is naturally posed
    over non-negative variables); upper bounds are expressed as ordinary
    constraints.

    Models are write-once containers: build, then hand to the solver
    ({!Revised_simplex}).  Rows are kept in a growable
    array, so {!constraint_row} is O(1) and lowering a model is linear in
    its size.  Names are optional and cost nothing when omitted: a model
    stores only the names it is given and renders the defaults ([x<i>] for
    variable [i], [c<r>] for row [r]) on demand. *)

type t

type var = private int
(** Variable handle, dense from [0]. *)

type sense = Le | Ge | Eq

type term = float * var

type expr = term list
(** Sparse linear expression [sum coeff * var].  Duplicate variables are
    allowed and are summed. *)

val create : ?name:string -> unit -> t

val name : t -> string

val add_var : ?name:string -> t -> var
(** Fresh non-negative variable, named [name] if given. *)

val var_of_int : t -> int -> var
(** Recover a handle from its index.  @raise Invalid_argument if out of
    range. *)

val var_name : t -> var -> string
(** The variable's name, or [x<i>] if it was added without one. *)

val num_vars : t -> int

val add_constraint : ?name:string -> t -> expr -> sense -> float -> int
(** [add_constraint m e s b] posts [e s b] and returns the row index; an
    unnamed row prints as [c<r>].  @raise Invalid_argument
    ["Model: non-finite right-hand side"] if [b] is NaN or infinite, or if
    [e] has a non-finite coefficient or an unknown variable. *)

val num_constraints : t -> int

val constraint_row : t -> int -> expr * sense * float
(** O(1).  @raise Invalid_argument if out of range. *)

val minimize : t -> ?constant:float -> expr -> unit

val maximize : t -> ?constant:float -> expr -> unit
(** [minimize]/[maximize] set the objective.  @raise Invalid_argument
    ["Model: non-finite objective constant"] if [constant] is NaN or
    infinite, or if the expression has a non-finite coefficient. *)

val objective : t -> [ `Minimize | `Maximize ] * expr * float
(** Direction, expression and additive constant; minimizing the zero
    objective when unset. *)

val pp : Format.formatter -> t -> unit
(** Human-readable dump of the whole program (for debugging and tests). *)

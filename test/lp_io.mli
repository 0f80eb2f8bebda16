(** Reading and writing models in (a subset of) the CPLEX LP text format —
    the lingua franca for inspecting a relaxation in an external solver or
    importing a reference model into the test suite.

    Supported grammar:
    {v
    \ comments run to end of line
    Minimize | Maximize
      name: 3 x0 + 5 x1 - 2 x2
    Subject To
      c1: x0 + 2 x1 <= 14
      c2: 3 x0 - x1 >= 0
      c3: x0 + x1 = 10
    Bounds
      x0 >= 0
    End
    v}

    All variables are non-negative (the only bound form accepted is
    [x >= 0], which is the default anyway); variables are created in order
    of first appearance. *)

val to_string : Lp.Model.t -> string

val of_string : string -> Lp.Model.t
(** @raise Failure with a line-numbered message on unsupported or malformed
    input, including a non-finite number (such as [1e400]) that the model
    rejects. *)

val save : string -> Lp.Model.t -> unit

val load : string -> Lp.Model.t

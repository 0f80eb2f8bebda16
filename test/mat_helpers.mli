(** Readers of {!Matrix.Mat} that only tests use. *)

val leq : Matrix.Mat.t -> Matrix.Mat.t -> bool
(** Entrywise [<=] on matrices of equal dimension.
    @raise Invalid_argument on a dimension mismatch. *)

val to_string : Matrix.Mat.t -> string
(** {!Matrix.Mat.pp} as a string: every cell, one bracketed row per line
    (a QCheck printer). *)

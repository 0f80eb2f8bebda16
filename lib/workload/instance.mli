(** Coflow scheduling instances: the input to every algorithm in this
    repository — a port count plus a list of weighted, dated demand
    matrices. *)

type coflow = {
  id : int;  (** stable identifier from the trace (drives the [H_A] order) *)
  release : int;  (** release date [r_k], slots *)
  demand : Matrix.Mat.t;
  weight : float;  (** positive weight [w_k] *)
}

type t = private { ports : int; coflows : coflow array }

val make : ports:int -> coflow list -> t
(** @raise Invalid_argument on dimension mismatch, non-positive weight,
    negative release, duplicate ids, or a coflow that pushes the total
    units, or the latest release plus them (so {!horizon}), past
    [max_int]; the message names that coflow's id. *)

val ports : t -> int

val num_coflows : t -> int

val coflow : t -> int -> coflow
(** By array position (the working index used by schedulers), not by
    [id]. *)

val coflows : t -> coflow array
(** Fresh array of the coflows in working order. *)

val filter_m0 : t -> int -> t
(** [filter_m0 inst k] keeps the coflows with at least [k] non-zero flows —
    the paper's trace-filtering methodology ("M0 >= 50" etc.). *)

val with_weights : t -> float array -> t
(** Replace weights positionally. *)

val weights : t -> float array

val releases : t -> int array

val demands : t -> (int * Matrix.Mat.t) list
(** [(release, demand)] pairs in working order, the shape
    {!Switchsim.Simulator.create} expects. *)

val total_units : t -> int

val horizon : t -> int
(** [max_k r_k + total_units] — the naive schedule-length bound [T] used to
    size the LP relaxations (§2.1). *)

val pp_summary : Format.formatter -> t -> unit

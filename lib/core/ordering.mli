(** Coflow orders for the ordering stage of the algorithms (§4.1).

    An order is a permutation of working indices, most-urgent first.  The
    paper evaluates [H_A] (trace order), [H_rho] (load over weight) and
    [H_LP] (the LP order (15)); [by_total_size] is an additional
    SJF-style baseline. *)

type t = int array

val is_permutation : int -> t -> bool

val arrival : Workload.Instance.t -> t
(** [H_A]: nondecreasing trace id (the "naive ordering by coflow IDs"). *)

val by_load_over_weight : Workload.Instance.t -> t
(** [H_rho]: nondecreasing [rho (D_k) / w_k], ties by release then id.
    This is the ordering used by the Varys-style heuristics in [13]. *)

val by_total_size : Workload.Instance.t -> t
(** Nondecreasing total bytes over weight — shortest-job-first flavour. *)

val by_lp : Lp_relax.result -> t
(** [H_LP]: the order (15) computed from approximated completion times. *)

(** Load quantities from §2.2 and §3.1 of the paper. *)

val load : Matrix.Mat.t -> int
(** [rho (D)] (Eq. 18): the maximum row or column sum — a universal lower
    bound on the slots needed to clear [D] alone, met exactly by
    Algorithm 1. *)

val cumulative_loads : Matrix.Mat.t array -> int array
(** [cumulative_loads ds] is the paper's [V_k] (Eq. 16) for the given order:
    entry [k] is the maximum, over all ports, of the total demand of coflows
    [0 .. k] on that port.  [V_k] lower-bounds the completion time of the
    prefix under {e any} schedule (Lemma 2). *)

val effective_bottleneck : Matrix.Mat.t -> weight:float -> float
(** [rho (D) / w] — the key of the paper's [H_rho] order (and of the
    Varys-style heuristics it cites).  @raise Invalid_argument if
    [weight <= 0]. *)

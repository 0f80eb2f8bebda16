(** E8 — concurrent open shop cross-check (the paper's Appendix A).

    A concurrent open shop is a set of diagonal coflows: job [j]'s work on
    machine [i] is the flow [(i, i)].  One seeded 10-machine x 40-job shop
    is scheduled by the dedicated primal-dual 2-approximation, by the LP
    ordering as a permutation, and by the coflow scheduler's case (d) on
    the diagonal embedding with the same LP ordering, against the
    single-machine WSPT lower bound. *)

val render : Config.t -> string
(** The four-row TWCT table.  The shop is drawn from
    [[| cfg.seed; 0x05 |]]; its size does not depend on the scale. *)

(** E10 — ordering portfolio: every ordering rule in the repository (the
    paper's three plus the LP-free primal-dual rule its conclusion asks for
    and a size-based heuristic) under grouping+backfilling, against the
    rate-based Varys-style baseline and the LP lower bound. *)

type row = {
  algo : string;
  twct : float;
  slots : int;
  lp_ratio : float;
}

val run : Harness.block -> row list
(** H_A, H_rho and H_LP are the block's raced case (d) rows; the other
    five run here. *)

val render : Harness.block list -> string

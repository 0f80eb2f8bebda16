(** E1 — Table 1 of the paper: normalized total weighted completion times
    for 3 orderings x 4 scheduling cases x 3 filters x 2 weightings, each
    block normalized by its (H_LP, case (d)) value. *)

type row = {
  filter : int;
  case : Core.Scheduler.case;
  equal_w : (string * float) list;  (** normalized TWCT per order label *)
  random_w : (string * float) list;
}

val orders : (string * string) list
(** The paper's order labels and the grid orders they name:
    [("HA", "H_A"); ("Hrho", "H_rho"); ("HLP", "H_LP")]. *)

val twct : Harness.block -> string -> Core.Scheduler.case -> float
(** [twct block order case]: the TWCT of the block's grid row
    [Arena.grid_algo order case]. *)

val normalized : Harness.block -> string -> Core.Scheduler.case -> float
(** {!twct} over the block's [H_LP (d)] TWCT: Table 1's normalization. *)

val rows : Harness.block list -> row list

val render : Harness.block list -> string

val csv : Harness.block list -> string

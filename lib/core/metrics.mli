(** Schedule quality metrics beyond the paper's objective.

    The paper optimises [sum w_k C_k]; its conclusion singles out weighted
    {e flow} time ([C_k - r_k], the time a coflow actually spends in the
    system) as the harder objective of interest.  These helpers let every
    experiment report both, plus distribution statistics. *)

val total_weighted_completion :
  weights:float array -> int array -> float

val total_weighted_flow :
  weights:float array -> releases:int array -> int array -> float
(** [sum w_k (C_k - r_k)].  @raise Invalid_argument if some [C_k < r_k]. *)

val mean : ?what:string -> int array -> float
(** [what] (e.g. ["SG on E19 small leg"]) is appended to the
    empty-array error so a report over many algorithms names the one
    whose completion set was empty. *)

val percentile : ?what:string -> float -> int array -> int
(** [percentile p cs] for [p] in [0, 1]; nearest-rank on the sorted values.
    @raise Invalid_argument on an empty array (naming [what] when given)
    or [p] outside [0, 1]. *)

val max_completion : ?what:string -> int array -> int
(** The makespan of the completion vector.
    @raise Invalid_argument on an empty array, like every sibling. *)

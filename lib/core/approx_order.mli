(** Shared machinery of the LP-free combinatorial orderings.

    {!Primal_dual}, {!Shafiee} and {!Chen} are all instances of one
    backward charging scheme: build the permutation from last to first;
    at each step pick the currently busiest port(s), charge every
    remaining coflow's residual weight at the rate of its load on those
    ports, and place last the coflow whose residual hits zero first.
    The variants differ only in {e which} ports they charge
    ({!charge}) and in whether release dates can pre-empt a charging
    step ([release_aware]).  Factoring the loop here keeps the three
    algorithms byte-comparable in the arena (E19) and gives them one
    deterministic tie-break contract. *)

type charge =
  | Bottleneck_port
      (** charge residuals against the single most loaded port, ingress
          or egress — the Mastrolilli-style rule of {!Primal_dual} and
          {!Shafiee} *)
  | Port_pair
      (** charge against the most loaded ingress {e and} the most loaded
          egress jointly — the joint-bottleneck refinement {!Chen}
          uses *)

val backward_order :
  ?release_aware:bool ->
  ?speed:float ->
  charge:charge ->
  Workload.Instance.t ->
  Ordering.t * float array
(** [backward_order ?release_aware ~charge inst] returns the permutation
    (most-urgent coflow first) and the final residual weights.

    [speed] (default [1.0]) is the aggregate per-port link speed — on a
    heterogeneous net, the sum of the fabric rates ({!Switchsim.Net.total_rate}).
    Load [l] drains in [l / speed] time, so the release-date pre-emption
    compares release dates against [charge_load / speed]; the charging
    step itself is invariant under the uniform scaling (the argmin of
    [residual / (load / speed)] does not depend on [speed]), so at
    [speed = 1.0] the result is bit-identical to the classic rule.

    Selection at each backward step, over the not-yet-placed coflows:

    - When [release_aware] (default [false]) and the largest remaining
      release date strictly exceeds the total remaining load on the
      charge port(s), the coflow with that release date is placed last
      {e without} charging: no schedule can finish the remaining set
      before that release, so the step's dual is raised on the release
      constraint instead of a port constraint (this is the release-date
      case of the Shafiee–Ghaderi rule).  With all-zero release dates
      the branch never fires and the result equals the release-unaware
      one.
    - Otherwise place last the coflow minimising
      [residual / load-on-charge-ports] and subtract
      [theta * load-on-charge-ports] from every remaining residual,
      where [theta] is that minimum (coflows with zero load on the
      charge ports have ratio [+inf]).

    Ties are broken deterministically and permutation-invariantly, on
    trace ids rather than working indices: smaller residual weight
    first, then {e larger} [Instance.coflow id] (both mean "less urgent,
    safe to place later").  In particular, when every remaining coflow
    has zero load on the charge ports (all ratios infinite — only
    possible when all remaining demands are empty) the fallback places
    coflows by ascending residual weight from the back, largest id
    last. *)

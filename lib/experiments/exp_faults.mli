(** E16 — fault-injection study (the robustness analogue of Fig. 2).

    Sweeps seeded random fault plans of increasing intensity over one
    instance and compares the three orderings ([H_A], [H_rho], [H_LP]) when
    each is run through the degradation-aware loop of {!Core.Resilient};
    every run's transcript is re-certified with {!Faults.Audit.check}.  A
    second table reports the [H_LP] chain diagnostics (slots per tier,
    re-planning rounds, LP failures), and a third demonstrates the
    H_LP -> H_rho -> H_A fallback under injected solver outages and a
    zero-second solver deadline.

    The sweep uses a pivot budget rather than a wall-clock deadline, so
    every run is a deterministic function of the configuration seed. *)

type entry = {
  primary : Core.Resilient.tier;
  result : Core.Resilient.result;
  audit_ok : bool;
}

type row = {
  intensity : float;
  plan : Faults.Fault_plan.t;
  entries : entry list;  (** one per ordering: [Arrival; Rho; Lp] *)
}

val run : Config.t -> row list
(** One row per intensity [0; 0.5; 1; 2]; intensity [0] is the fault-free
    baseline the "vs 0" columns normalise against. *)

val render : Config.t -> string

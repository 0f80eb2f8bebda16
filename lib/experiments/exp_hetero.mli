(** E21: heterogeneous multi-fabric arena — the LP-free contenders plus
    {!Core.Chen_hetero} raced over [k] parallel fabrics ([k] in 1, 2, 4)
    with rate skews 1:1, 4:1 and 10:1, seven {!Arena} legs labelled
    ["k=1"], ["k=2 1:1"], ..., ["k=4 10:1"], each ranked against the
    rate-aware isolation lower bound

    {v sum_k w_k (r_k + ceil (rho (D_k) / S)),   S = sum of fabric rates v}

    (every coflow still needs [rho / S] slots alone on its bottleneck
    port once released, whatever the routing).

    An eighth, fault leg takes the {e fast} fabric of a 4:1 two-fabric
    net down mid-run ({!Faults.Fault_plan.Fabric_down}) and drains the
    residual through {!Core.Resilient} on the surviving fabric.  Its
    verdicts are the leg's checks: [completed], [audit_ok] (a clean
    independent {!Faults.Audit.check} with per-fabric constraints),
    [outage_clean] (no slot inside the window routed anything over the
    dead fabric), [served_during_outage], and re-planning at both outage
    boundaries (the check name carries the replan count). *)

val run : ?jobs:int -> Config.t -> Arena.leg list
(** @raise Failure when a policy beats a leg's lower bound or a fault-leg
    check fails. *)

(** E15 — oversubscribed fabric (relaxing the paper's non-blocking
    assumption).

    The Facebook cluster behind the paper's trace had a 10:1 core-to-rack
    oversubscription; the model (and this repo's other experiments) assume
    a non-blocking core.  This experiment sweeps the core capacity from
    non-blocking down to 10:1 — four {!Arena} legs on
    {!Switchsim.Net.two_tier} with racks of [ports / 6] — and measures how
    much greedy H_rho degrades.  The greedy sweep spends the core budget
    only on inter-rack pairs, so rack-local traffic is never starved. *)

val run : ?jobs:int -> Config.t -> Arena.leg list
(** One single-contender leg per core capacity, labelled
    ["non-blocking"], ["2:1 oversubscribed"], ["4:1 oversubscribed"],
    ["10:1 oversubscribed"]; identical at any [jobs]. *)

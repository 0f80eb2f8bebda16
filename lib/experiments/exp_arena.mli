(** E19: the algorithm arena — every scheduler in the repo raced on
    shared seeds and ranked against a certified lower bound, as two
    {!Arena} legs.

    - {b Small leg} ([id "small"], LP-EXP-sized, with release dates):
      the LP-free contenders ({!Arena.lp_free}), the paper's full
      [H_LP (d)] stack, and the slot-adaptive baselines (SEBF+MADD,
      MaxWeight, round-robin), ranked against the time-indexed LP-EXP
      lower bound.  Guaranteed entries are asserted within
      [factor x LP-EXP] (stronger than the theorems, which bound against
      OPT — LP-EXP is below OPT — but comfortably true in practice and a
      tight tripwire for regressions).
    - {b Scale leg} ([id "scale"], the E18 instance, default 150 ports x
      526 coflows): the LP-free contenders plus the budgeted H_LP of
      {!Arena.budgeted_hlp}, which at this scale falls back to H_rho and
      says so in its name and [fallback] field.  The bound is the
      isolation bound [sum_k w_k (r_k + rho (D_k))]; guaranteed entries
      are asserted within [factor x best-TWCT], sound because the best
      measured TWCT is itself an upper bound on OPT. *)

val run :
  ?jobs:int -> ?filter:int -> ?scale:int * int -> Config.t -> Arena.leg list
(** [[small; scale]].  The small leg is [cfg.lpexp_ports] x
    [cfg.lpexp_coflows]; [scale] overrides the scale leg's (ports,
    coflows), default [({!Exp_scale.ports}, {!Exp_scale.coflows})] — tests
    shrink it.  The H_LP pivot budget is {!Exp_scale.lp_budget}.  [filter]
    applies an M0 filter to the small-leg instance before racing — an
    empty result makes the first statistics call raise an
    [Invalid_argument] naming the algorithm and leg.  [jobs] distributes
    the simulations over domains.
    @raise Failure when an {!Arena.race} assertion fails. *)

(** E5 — theory audit: the paper's inequalities on the actual experiment
    workload (not just the unit-test micro instances).

    For every (filter, weighting) block: Lemma 2 on all 12 schedules,
    Proposition 1 on the six grouped ones, and the Theorem 1 ratio of the
    deterministic algorithm ([H_LP (c)]) against the certified LP lower
    bound are the block leg's in-run checks and guarantee, which
    {!Harness.all_blocks}' race asserts; the audit reads them back.
    Lemma 3, a property of the LP solution rather than of a run, is
    checked here. *)

type block_audit = {
  filter : int;
  weighting : Harness.weighting;
  lemma2_ok : bool;
  lemma3_ok : bool;
  prop1_ok : bool;
  det_ratio : float;  (** TWCT(H_LP, case c) / LP bound *)
  best_ratio : float;  (** min over all 12 algorithms of TWCT / LP bound *)
  limit : float;  (** H_LP (c)'s guarantee: 64/3 without release dates *)
}

val audit : Harness.block list -> block_audit list

val all_pass : block_audit list -> bool

val render : Harness.block list -> string

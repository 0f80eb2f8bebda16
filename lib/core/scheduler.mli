(** The scheduling stage: turn an ordered (and possibly grouped) list of
    coflows into actual per-slot matchings, executed and validated by
    {!Switchsim.Simulator}.

    The four cases evaluated in §4 of the paper:

    - {b (a) base}: clear each coflow on its own with Algorithm 1, strictly
      in order;
    - {b (b) backfilling}: as (a), but when a matched port pair has no
      remaining demand from the current coflow, a data unit from the first
      subsequent coflow with demand on the same pair is sent instead;
    - {b (c) grouping}: Algorithm 2 — coflows in the same geometric load
      class are consolidated and cleared as one aggregated coflow;
    - {b (d) grouping + backfilling}: both.

    With the [H_LP] order, case (c) is exactly the paper's deterministic
    approximation algorithm (Theorem 1). *)

type case = Base | Backfill | Group | Group_backfill

val all_cases : case list

val case_name : case -> string
(** ["a" | "b" | "c" | "d"]. *)

type result = Engine.result = {
  completion : int array;  (** completion slot per working index *)
  twct : float;  (** total weighted completion time *)
  slots : int;  (** schedule length (makespan) *)
  seconds : float;  (** wall-clock time of the simulation loop *)
  utilization : float;
  matchings : int;  (** distinct BvN matchings computed *)
  decisions : int;  (** policy decisions the loop took *)
}
(** Re-export of {!Engine.result}: the engine assembles it for every
    policy; this alias keeps the historical name every caller uses. *)

type scratch
(** Per-run buffers of the matching replay (the owner index, pair owners,
    the dedupe table, the live candidate views) and the last decision's
    pending accounting, sized on first use. *)

type state = {
  order : int array;
      (** the grouping being executed, flattened: the schedule order *)
  start : int array;
      (** group [u] is [order.(start.(u)) .. order.(start.(u+1) - 1)]; its
          suffix, the backfill candidates, runs from [start.(u+1)] to the
          end *)
  mutable current : int;  (** index of the active group *)
  mutable queue : Bvn.schedule;
      (** remaining BvN matchings of the active group, as {!Bvn.schedule}
          built them *)
  mutable spent : int array;
      (** [spent.(p)]: slot budget already used by the [p]-th queue entry,
          for the first [k] entries (one per fabric) — the ones served *)
  mutable matchings_built : int;
  mutable matchings_reused : int;
      (** slots served from a matching that had already served a slot *)
  scratch : scratch;
}
(** The mutable policy state, exposed concretely so observability tooling
    can read the active group / queue depth and white-box tests can
    construct degenerate states (e.g. a group whose demand vanished)
    directly. Ordinary callers should treat it as opaque and go through
    {!as_policy} / {!run_grouped}. *)

val make_state : Grouping.t -> state
(** O(coflows + groups) words: the flat order and the group offsets. *)

val next_slot :
  state ->
  backfill:bool ->
  ?aggressive:bool ->
  Switchsim.Simulator.t ->
  Switchsim.Simulator.transfer list
(** One slot of the grouped policy.  Advances past complete groups; when
    the active group's aggregate demand has vanished while members are
    still marked unfinished, the group is skipped (never idles).  Once all
    groups are done, any coflows the grouping did not cover are served
    greedily, in index order, instead of idling until the slot budget
    trips.  Records a {!Obs.Events.slot_event} per call when the event
    stream is enabled.

    Each fabric serves one queued matching; a pair goes to the first
    released coflow that owes it, the group before (with [backfill]) its
    suffix.  On a fabric with a core budget at most that many inter-rack
    pairs are served per slot — the group's first, then the backfill
    pairs, each source ascending; rack-local pairs always are.  The greedy
    paths (leftovers, the suffix while the next group is gated by a
    release, the [aggressive] top-up) decide over {!Policy.live_slice}
    views, so a decision costs O(ports + live candidates).  A served
    matching finds each pair's owner through the owner index ({!owners}),
    for O(ports + entries walked): a pair walks from its cursor past the
    drained, unreleased or taken entries ahead of its owner, about one
    demand check per pair served on [paper_grouped].  The index costs
    O(coflows * ports * words + nonzeros) to build, once per run and after
    each growth of a support.

    The batched decision {!as_policy} offers answers the slot's transfers
    and the scheduler's own cap: the served BvN matchings' remaining slot
    budget ([max_n] on the greedy paths).  The simulator stops the batch
    sooner at a demand zero or a release, so the covered slots are
    exactly what that many calls of [next_slot] would decide.  The
    stepper's [committed] then accounts matching reuse, backfill and the
    slot event for the [n] slots committed; [next_slot] accounts for its
    one slot itself. *)

val owners :
  state ->
  Switchsim.Simulator.t ->
  int array ->
  lo:int ->
  hi:int ->
  taken:(int -> int -> int -> bool) ->
  int array
(** [owners state sim matching ~lo ~hi ~taken] is the replay's pair
    assignment: for every source [i] of the perfect [matching]
    (destination per source), the position in [state.order] of the first
    coflow [k] of [order.(lo) .. order.(hi - 1)] that is released, still
    owes the pair [(i, j)], [j = matching.(i)], and is not
    [taken k i j]; -1 for none.  {!next_slot} calls it with the group (and with backfill its
    suffix) as the range, and on a multi-fabric net marks as taken the
    entries an earlier fabric serves in the same slot.

    Each pair is found through the state's owner index: the positions of
    the coflows that hold demand on the pair, ascending, walked from a
    cursor that only moves past entries that have drained.  The index is
    built from [sim]'s supports on first use, and rebuilt for another
    simulator or after {!Switchsim.Simulator.add_demand} grew a support.
    Returns the state's scratch array, overwritten by the next call.
    White-box tests compare it with a coflow-major sweep. *)

val as_policy :
  ?backfill:bool ->
  ?aggressive:bool ->
  describe:string ->
  Grouping.t ->
  Policy.t
(** The grouped policy as a first-class {!Policy.t}: fresh state per
    prepared run, matchings-built folded into the engine's result.  This is
    what {!run} / {!run_grouped} hand to {!Engine.run}.  Groups are
    activated in order once all their members are released; while the
    next group is gated by a release date, a backfilling policy serves
    released later coflows greedily and a non-backfilling policy idles,
    matching the sequential discipline of Algorithm 2. *)

val case_policy : case:case -> Workload.Instance.t -> Ordering.t -> Policy.t
(** The grouped policy of [case] over [order], as {!run} executes it.
    @raise Invalid_argument, naming the group's first coflow, when a
    group's aggregate load times the port count passes [max_int]: BvN
    could not augment it. *)

val run : ?case:case -> Workload.Instance.t -> Ordering.t -> result
(** Build the grouping for [case] (default [Group], the paper's algorithm),
    simulate to completion via {!Engine.run}, return measured statistics.
    {!Policy.unbatched} of {!case_policy} is the slot-by-slot
    reference. *)

val run_grouped :
  ?backfill:bool ->
  ?aggressive:bool ->
  Workload.Instance.t ->
  Grouping.t ->
  result
(** Like {!run} but with an explicit (e.g. randomized) grouping.

    [aggressive] enables a work-conserving extension beyond the paper's
    backfilling (an ablation this repo adds): after the BvN matching claims
    its port pairs, all still-idle ports are matched greedily against the
    remaining demand in priority order.  The paper's backfilling only reuses
    the {e matched} pairs, which can leave ports idle when the augmented
    matrix has no counterpart demand downstream. *)

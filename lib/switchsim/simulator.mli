(** Discrete-time simulator of the network model.  The paper's model is
    one giant non-blocking [m x m] switch whose ingress and egress ports
    each move at most one data unit per slot (constraints (2)–(5) of the
    paper); the general model ({!Net}) is [k] such switches in parallel
    with per-fabric rates — a transfer on fabric [f] moves [rate f] units
    per slot, and the one-transfer-per-port constraint holds per fabric.
    A simulator built without an explicit net runs on [Net.single], which
    is exactly the paper's model.

    The simulator is the ground truth for every experiment: schedulers are
    expressed as policies that {!run} steps to completion, the simulator
    validates each slot against the matching, routing and release-date
    constraints and records the exact completion time of every coflow. *)

type t

type transfer = { src : int; dst : int; coflow : int; fabric : int }
(** Data moved from ingress [src] to egress [dst] on behalf of [coflow]
    during the current slot, routed over fabric [fabric] (0 on the
    single-switch model): [min (rate fabric) (remaining src dst)] units
    per slot. *)

exception Invalid_slot of string
(** Raised by {!step} when a proposed slot violates a constraint; the
    simulator state is unchanged in that case. *)

val create :
  ?validate:(slots:int -> transfer list -> (unit, string) result) ->
  ?net:Net.t ->
  ports:int ->
  (int * Matrix.Mat.t) list ->
  t
(** [create ~ports demands] with [demands = [(release_k, d_k); ...]]; coflow
    [k] (0-based, in list order) becomes serviceable at time [release_k].
    Each [d_k] is copied, so the caller's matrices (typically an
    [Instance] reused across runs) are never mutated.

    [net] is the topology (default [Net.single ~ports], the paper's
    model); its port count must equal [ports].  Per-fabric core budgets
    declared by the net are enforced by {!step} itself.

    [validate] adds extra feasibility on top of the matching and topology
    constraints — e.g. the fault injector restricts slots to the live
    ports of its fault plan.  It receives the number of consecutive
    slots the transfers are about to serve ([1] from {!step}, the batch
    length from {!step_batch}), so a hook whose constraints vary with
    time can reject a batch that would outlive them.  A [Error msg]
    result makes {!step} raise [Invalid_slot msg] without mutating
    state.

    @raise Invalid_argument on dimension mismatch or negative release. *)

val ports : t -> int

val net : t -> Net.t
(** The topology the simulator enforces. *)

val num_fabrics : t -> int
(** [Net.k (net t)]. *)

val fabric_rate : t -> int -> int
(** Units one transfer on the given fabric moves per slot.
    @raise Invalid_argument when the fabric index is out of range. *)

val num_coflows : t -> int

val now : t -> int
(** Number of slots elapsed.  Slot [s] (1-based) spans time [(s-1, s]]. *)

val release_time : t -> int -> int

val set_release : t -> int -> int -> unit
(** [set_release sim k r] reschedules coflow [k]'s release — the hook for
    precedence-constrained workloads, where a stage becomes available only
    when its predecessors finish.  Only a release still in the future may be
    changed, and only to a time [>= now sim] (history cannot be
    rewritten).  Use [max_int] at {!create} for "pending until released
    explicitly".  O(coflows): the sorted release dates are updated in
    place.  @raise Invalid_argument otherwise. *)

val released : t -> int -> bool
(** [released sim k] iff coflow [k] may be served in the next slot
    (its release time is [<= now sim]). *)

val released_count : t -> int
(** Number of released coflows, finished ones included; one binary search
    over the sorted release dates.  The released set only grows —
    {!set_release} moves only unreleased coflows, never before [now] —
    so two equal counts mean the same set. *)

val unfinished_count : t -> int
(** Number of coflows with remaining demand; O(1).  The unfinished set
    only shrinks — {!add_demand} refuses finished coflows — so two equal
    counts mean the same set.  Together with {!released_count} this tells
    a cached view of the live coflows whether it is still current. *)

val remaining : t -> int -> Matrix.Mat.t
(** Copy of coflow [k]'s remaining demand, O(words * ports + nonzeros)
    ({!Matrix.Mat.copy}).  Per-slot paths should use {!iter_remaining} or
    the aggregate queries below, which copy nothing. *)

val remaining_load : t -> int -> int
(** [rho] of coflow [k]'s remaining demand (max row/col sum), O(ports) from
    the incrementally maintained port loads — never walks the matrix. *)

val iter_remaining : t -> int -> (int -> int -> int -> unit) -> unit
(** [iter_remaining sim k f] applies [f i j units] to every strictly
    positive remaining entry of coflow [k] without copying — the fast path
    for per-slot policies.  The callback must not call {!step} or
    {!add_demand}: collect first, then write. *)

val remaining_live_mask : t -> int -> int -> int
(** [remaining_live_mask sim k w] — word [w] of coflow [k]'s live-row
    bitset ({!Matrix.Bits} layout): bit [i] is set iff source port
    [w * Bits.bits_per_word + i] still owes demand.  Intersecting with a
    free-source bitset yields a slot's candidate sources in one [land]
    per word — the core of the O(ports/word) matching scan. *)

val remaining_row_mask : t -> int -> int -> int -> int
(** [remaining_row_mask sim k i w] — word [w] of the column-support
    bitset of coflow [k]'s source row [i].  Intersecting with a free-dst
    bitset and taking the lowest set bit yields the first usable
    destination in the row without visiting entries. *)

val remaining_at : t -> int -> int -> int -> int
(** [remaining_at sim k i j] — remaining units of coflow [k] on pair
    [(i, j)]; a bit test and at most [words] popcounts
    ({!Matrix.Mat.get}). *)

val remaining_first_dst :
  t -> int -> int -> avail:int array -> off:int -> int
(** [remaining_first_dst sim k i ~avail ~off] — the lowest destination
    [j] to which coflow [k]'s source [i] still owes demand and whose bit
    is set in word [off + Bits.word_of j] of [avail], or [-1]: a greedy
    kernel's whole row probe in one call ({!Matrix.Mat.first_col}).
    [avail] holds one {!Matrix.Bits}-layout word per [words] from [off]
    (a free-destination bitset, possibly narrowed); [i] is unchecked
    beyond the underlying array's bound. *)

val claim_rows :
  t -> int -> free_src:int array -> free_dst:int array -> off:int -> int
(** [claim_rows sim k ~free_src ~free_dst ~off] — the greedy sweep of
    coflow [k] on one unrestricted fabric, in one call
    ({!Matrix.Mat.claim_rows}): each source [i] that still owes demand
    and whose bit is set in [free_src], ascending, claims the lowest
    destination [j] it owes demand to whose bit is set in [free_dst];
    both bits are cleared before the next source looks.  Returns the
    number [n] of pairs; pair [p < n] is [((claims sim).(2p),
    (claims sim).(2p + 1))], in claim order.  Exactly
    {!remaining_first_dst} on [free_dst] source by source, claims
    included.  Both masks hold one {!Matrix.Bits}-layout word per
    [words] from [off] (fabric [f]'s at [f * words]).  The coflow is
    checked once; nothing is allocated but the {!claims} buffer, on the
    simulator's first call. *)

val claims : t -> int array
(** The simulator's own buffer of the pairs the last {!claim_rows} found
    ([2 * ports] ints, overwritten by every call; empty until the first
    call allocates it, so read it after the call): read it, never write
    it.  One buffer per simulator, so concurrent runs share none. *)

val remaining_total : t -> int -> int

val is_complete : t -> int -> bool

val add_demand : t -> int -> src:int -> dst:int -> int -> unit
(** [add_demand sim k ~src ~dst units] grows coflow [k]'s remaining demand on
    pair [(src, dst)] by [units > 0] — the hook for straggler injection,
    where a coflow's true size is discovered mid-run to exceed its
    announced demand.  Only an unfinished coflow may grow (completion times
    are immutable history).  @raise Invalid_argument otherwise. *)

val grown_entries : t -> int
(** Number of entries {!add_demand} has created or revived (grown from
    zero) so far; O(1).  Every other change only drains demand, so
    between two equal readings every coflow's support has only shrunk: an
    index over the supports built at the first reading is still a
    superset at the second. *)

val all_complete : t -> bool

val completion_time : t -> int -> int option
(** Slot in which coflow [k] finished, if it has. *)

val completion_time_exn : t -> int -> int

val next_release_gap : t -> int option
(** Slots until the next still-pending release becomes serviceable ([None]
    when every coflow is released).  The release-boundary half of the batch
    bound used by event-driven policies; the same binary search as
    {!released_count}. *)

val first_service_time : t -> int -> int option
(** Slot in which coflow [k]'s first unit moved, if any has — together
    with {!release_time} this is the coflow's waiting time, the tail
    metric the flight recorder histograms and the per-coflow trace tracks
    are built on. *)

val step : t -> transfer list -> unit
(** Execute one slot.  Validates that (i) no port appears twice on any one
    fabric, (ii) every transfer has positive remaining demand, (iii) every
    served coflow is released, (iv) every fabric index is in range and no
    (coflow, src, dst) entry is drained by two fabrics in the same slot,
    (v) each oversubscribed fabric's inter-rack transfers fit its core
    budget.  Each transfer moves [min (rate fabric) remaining] units.
    Advances the clock even when the list is empty (idle slot).  Each
    served entry is looked up once, by validation, and written once.

    When {!Obs.Trace} is enabled, every step additionally emits the
    per-coflow lifecycle events (release opens a ["wait"] slice, first
    service switches it to ["serve"], completion closes it) and a
    per-slot transfer counter sample — [step] is the choke point every
    driver funnels through, so traces are complete no matter which loop
    runs the policy. *)

val step_batch : t -> transfer list -> slots:int -> unit
(** [step_batch sim transfers ~slots] commits [slots >= 1] consecutive
    slots that all serve the same transfer list, in one O(transfers)
    update.  Beyond {!step}'s checks, every served pair must hold strictly
    more than [(slots - 1) * rate] units ([>= slots] at rate 1) — no entry
    may reach zero strictly inside the batch, so
    no completion, first service or structural change can fall between the
    batch's first and last slot and the observable outcome (clock,
    completion slots, first-service slots, totals, histograms) is identical
    to calling {!step} [slots] times.  @raise Invalid_slot otherwise. *)

val run :
  ?max_slots:int ->
  t ->
  policy:(t -> max_n:int -> transfer list * int) ->
  int
(** [run sim ~policy] steps [sim] until all coflows complete and returns
    the number of decisions it took — the only loop that steps a run to
    completion.  Each decision answers with the slot's transfers {e and}
    the number of consecutive slots [n] they may be replayed for,
    [1 <= n <= max_n]; the clock jumps [n] slots in one {!step_batch}.
    A per-slot policy answers [n = 1].  The policy owns the full safety
    argument (no release boundary or internal schedule boundary inside
    the batch — the skip bound in the core policy layer); the demand half
    is enforced independently by the batch step.  [max_slots] (default
    [10_000_000]) guards against non-progressing policies; budget
    accounting is slot-exact, so a run that would exhaust [max_slots]
    slot by slot exhausts it here too.
    @raise Invalid_slot on a bad policy decision, [Failure] when the
    budget is exhausted, [Invalid_argument] when the policy returns
    [n < 1] or [n > max_n]. *)

val total_weighted_completion : t -> float array -> float
(** [total_weighted_completion sim w] is [sum_k w.(k) * C_k].
    @raise Invalid_argument if some coflow has not completed or the weight
    vector is short. *)

val units_moved : t -> int

val utilization : t -> float
(** Units moved divided by [ports * now] — mean fraction of port-slots
    carrying data. *)

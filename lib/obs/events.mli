(** Low-overhead per-decision event stream.

    One record per scheduling decision, which may cover several slots,
    emitted by the scheduling policy, which is the only layer that knows
    both the matching decisions and the group context.  Recording is disabled by default: the hot path pays a single
    atomic load and no allocation until {!set_enabled}[ true] (the
    [--profile] flag flips it).

    The stream is bounded: a ring of {!set_capacity} events (default
    [2^20], generous for any experiment in the repo) keeps the newest
    events and counts overwritten ones in {!dropped_count}, so a
    long-running [--profile] session degrades to "recent history plus a
    loss counter" instead of growing without limit. *)

type slot_event = {
  slot : int;  (** simulator clock before the decision's first slot *)
  transfers : int;  (** transfers the decision serves in each slot *)
  active_group : int;  (** index of the group being cleared, [-1] if none *)
  built : int;  (** BvN matchings built (a rebuild happened) *)
  reused : int;  (** slots served from a matching that had served before *)
  backfilled : int;  (** backfill / work-conserving transfers times slots *)
}

val set_enabled : bool -> unit

val enabled : unit -> bool

val record : slot_event -> unit
(** No-op while disabled.  While a {!capture} scope is active on the
    calling domain, the event goes to that scope's buffer instead of the
    shared ring. *)

val capture : (unit -> 'a) -> 'a * slot_event list
(** [capture f] runs [f] with this domain's recordings redirected into a
    private buffer and returns them (oldest first) alongside [f]'s result.
    Scopes nest (the inner scope wins) and are domain-local, so concurrent
    jobs never interleave their streams.  Re-inject with {!append}. *)

val append : slot_event list -> unit
(** Append previously captured events to the shared ring, in order (no-op
    while disabled) — the deterministic merge step at a parallel join. *)

val length : unit -> int
(** Events currently held (after any ring eviction). *)

val set_capacity : int -> unit
(** Ring size; [0] = unbounded.  Shrinking below the current length keeps
    the newest events and counts the evicted ones as dropped.
    @raise Invalid_argument on a negative capacity. *)

val dropped_count : unit -> int
(** Events overwritten by the ring since the last {!reset} — exported in
    the profile artifact as [slot_events_dropped]. *)

val to_list : unit -> slot_event list
(** Recorded events, oldest first. *)

val reset : unit -> unit
(** Drop recorded events and zero the dropped counter (the enabled flag
    and capacity are unchanged). *)

val write_jsonl : Buffer.t -> unit
(** One JSON object per line, oldest first:
    [{"slot":0,"transfers":3,"active_group":0,"built":2,"reused":0,
    "backfilled":1}]. *)

val write_csv : Buffer.t -> unit
(** Header [slot,transfers,active_group,built,reused,backfilled] then one
    row per event. *)

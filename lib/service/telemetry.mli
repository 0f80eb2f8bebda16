(** The live telemetry layer: one observer that turns the epoch loop's
    {!Epoch_loop.epoch_view} stream into

    - a JSONL snapshot stream ({!Obs.Snapshot}: cumulative / delta /
      rolling-window counters per epoch) written through while the run is
      in flight — tail it to watch a soak live;
    - a Prometheus text exposition ({!Obs.Prom}) atomically refreshed on
      every snapshot, for the node-exporter textfile collector;
    - burn-rate SLO evaluation ({!Slo}) over signals derived from each
      view, with the alert timeline exported as a JSON artifact;
    - a liveness {!Watchdog} fed one beat per epoch.

    The observer is strictly read-only: it never touches the loop's
    decisions, so stats and fingerprints are byte-identical with
    telemetry on or off (E20 asserts exactly this), and because every
    signal is keyed on the epoch index — never wall clock — two replays
    of a seeded run produce byte-identical streams and timelines.

    {b Burn signals} computed per epoch (all scaled so 1.0 = at budget):

    - [wait_p99]: running p99 admission wait over [wait_budget] slots;
    - [audit_violation]: 1.0 on the epoch an audit violation fired;
    - [rejection_rate]: this epoch's rejected/arrived over
      [reject_budget];
    - [twct_vs_bound]: running TWCT over [twct_factor] x the certified
      lower-bound sum — the guaranteed-policy regression signal;
    - [degradation]: epochs planned below the primary tier, this epoch;
    - [demand_surplus]: 1.0 when the epoch's demand books failed to
      balance (a straggler grew demand mid-epoch);
    - [fabric_stall]: 1.0 when at least [stall_min_live] live coflows
      with residual demand spanning at least [stall_min_spread] ports
      drained fewer than [stall_units_per_slot] units per slot (a
      degraded core serializing the fabric).  Both gates exist to kill
      false positives: demand concentrated on one port drains at one
      unit/slot optimally, and with only a couple of live coflows the
      sigma-ordered schedule legitimately runs at the head coflow's
      parallelism rather than the union spread. *)

type config = {
  path : string option;
      (** base path for artifacts: [PATH.jsonl] (stream, write-through),
          [PATH.prom] (exposition, atomically refreshed per snapshot) and
          [PATH.alerts.json] (SLO transitions plus watchdog alerts,
          [{"transitions":[...],"watchdog":[...]}], written by
          {!finish}).  [None] keeps the stream in memory ({!stream}) and
          writes no files. *)
  window : int;  (** snapshot rolling-window length, frames *)
  rules : Slo.rule list;  (** SLO rules over the burn signals *)
  watchdog : Watchdog.config;
  wait_budget : int;  (** p99 wait SLO, slots *)
  reject_budget : float;  (** tolerated per-epoch rejection fraction *)
  twct_factor : float;  (** fire when TWCT > factor x lower bound *)
  stall_min_spread : int;  (** fabric-stall: port spread at least this *)
  stall_min_live : int;  (** ... with at least this many live coflows *)
  stall_units_per_slot : float;  (** ... draining less than this *)
}

val default_config : config
(** No path, window 8, one SLO rule per burn signal (binary signals —
    violation, surplus — use single-epoch windows so they fire the epoch
    the fault lands),
    {!Watchdog.default_config}, wait budget 512 slots, reject budget
    0.10, TWCT factor 4.0, stall at spread >= 4 with >= 4 live coflows
    and < 1.05 units/slot. *)

type t

val create : ?config:config -> unit -> t
(** @raise Invalid_argument via {!Slo.create} / {!Watchdog.create} on a
    bad rule set or watchdog config, or [window < 1]. *)

val observer : t -> Epoch_loop.epoch_view -> unit
(** The function to pass as [Epoch_loop.run ~observer].  Feeds the SLO
    and watchdog, records a snapshot frame (the frame therefore already
    includes this epoch's [slo.*] / [watchdog.*] counter bumps), streams
    the JSONL line and refreshes the exposition file. *)

val finish : t -> unit
(** Flush and close the stream, refresh the exposition one last time and
    write the alert-timeline artifact.  Idempotent. *)

val degrade_notch : t -> unit -> int
(** The alert-driven reaction hook for {!Epoch_loop.config.degrade_notch}:
    returns 1 while the ["wait_p99"] rule is {!Slo.Firing} and 0
    otherwise, evaluated against the {e current} alert state each time the
    loop consults it — the degradation bar is halved the epoch after the
    alert fires and restored the epoch after it resolves.  Wire both ends
    of the same {!t}: [Epoch_loop.run ~observer:(observer tel)
    { cfg with degrade_notch = Some (degrade_notch tel) }].
    @raise Not_found (at call time) if the config's rule set has no
    ["wait_p99"] rule. *)

val slo : t -> Slo.t

val watchdog : t -> Watchdog.t

val epochs : t -> int
(** Views observed so far. *)

val stream : t -> string
(** The JSONL stream accumulated so far (only populated when
    [config.path = None]; with a path the stream goes to the file). *)

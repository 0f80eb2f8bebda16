(** Declarative SLO rules evaluated against the telemetry snapshot stream,
    with multi-window burn rates and a hysteretic alert state machine.

    Each {!rule} watches one named burn signal — a per-epoch ratio of
    "badness" to budget (p99 wait over its budget, rejection rate over the
    tolerated rate, TWCT over a factor of the certified lower bound, ...)
    that the telemetry layer computes from each {!Epoch_loop.epoch_view}.
    A value of 1.0 means the budget is being consumed exactly as fast as
    allowed; sustained values above the rule's thresholds page.

    Following the multi-window burn-rate recipe, a rule fires only when
    {e both} a short window (fast detection, noisy) and a long window
    (slow, stable) average at or above the threshold: the short window
    bounds detection latency, the long window suppresses one-epoch blips.
    Hysteresis works the other way on clears — a firing alert resolves
    only after [clear_after] consecutive {e cool} epochs (both windows
    below the warning threshold), so a signal oscillating around the
    threshold produces one alert episode, not a page storm.

    Per-rule state machine:

    {v
        Ok --------> Warning ----------> Firing
         ^   warn       |       fire       |
         |              | cool x clear     | cool x clear_after
         |              v                  v
         +---------- (back to Ok)      Resolved --(cool)--> Ok
                                           |
                                           +--(hot again)--> Warning/Firing
    v}

    [Resolved] is a transient acknowledgement state: the very next step
    either returns to [Ok] (still cool) or re-enters [Warning]/[Firing]
    (reentry — counted as a fresh episode).  Every transition bumps the
    [slo.transitions] counter (plus [slo.fired] / [slo.resolved] on the
    edges that matter), emits a trace instant when tracing is on, and is
    appended to the timeline that {!transitions} exposes and the
    telemetry layer exports as the alert-timeline JSON artifact. *)

type state = Ok | Warning | Firing | Resolved

type rule = {
  name : string;  (** the burn signal this rule watches *)
  short_window : int;  (** epochs, >= 1; bounds detection latency *)
  long_window : int;  (** epochs, >= short_window; suppresses blips *)
  warn_burn : float;  (** both-window average at/above this warns *)
  fire_burn : float;  (** both-window average at/above this fires *)
  clear_after : int;  (** consecutive cool epochs before clearing, >= 1 *)
}

val rule :
  ?short_window:int ->
  ?long_window:int ->
  ?warn_burn:float ->
  ?fire_burn:float ->
  ?clear_after:int ->
  string ->
  rule
(** [rule name] with defaults short 2 / long 8 / warn 1.0 / fire 2.0 /
    clear 3. *)

type transition = {
  t_epoch : int;
  t_rule : string;
  t_from : state;
  t_to : state;
  t_value : float;  (** the burn sample that triggered the step *)
  t_short : float;  (** short-window average at the transition *)
  t_long : float;  (** long-window average at the transition *)
}

type t

val create : rule list -> t
(** @raise Invalid_argument on duplicate rule names or a rule with
    non-positive windows, [long_window < short_window], negative burns,
    [fire_burn < warn_burn], or [clear_after < 1]. *)

val step : t -> epoch:int -> (string * float) list -> transition list
(** [step t ~epoch burns] feeds one epoch of burn samples (missing rule
    names sample as 0.0 — an absent signal is a quiet signal) and returns
    the transitions this epoch caused, oldest first.  Also appends them
    to the cumulative timeline, bumps the [slo.*] counters and emits
    trace instants. *)

val state : t -> string -> state
(** Current state of the named rule.  @raise Not_found on unknown name. *)

val transitions : t -> transition list
(** The full timeline so far, oldest first. *)

val firing : t -> string list
(** Names of rules currently in [Firing], in rule order. *)

val to_json : transition list -> string
(** The alert-timeline artifact: a JSON array of transition objects
    [{"epoch","rule","from","to","value","short","long"}]. *)

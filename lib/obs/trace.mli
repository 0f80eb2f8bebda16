(** Flight recorder: a Chrome trace-event / Perfetto-loadable JSON writer.

    Open the written file directly in {{:https://ui.perfetto.dev}Perfetto}
    (or [chrome://tracing]).  Two timelines coexist as two processes:

    - {b pid 1, wall clock} — every {!Span.with_} invocation becomes a
      duration ("X") event while tracing is enabled, so the nesting the
      span registry aggregates is visible un-aggregated, in time order;
    - {b pid 2, simulated time} — one millisecond of trace time per slot:
      per-slot counter tracks ("C"), fault injections as instant events
      ("i"), and per-coflow lifecycles as async tracks (cat ["coflow"],
      id = coflow index: a ["wait"] slice from release to first service,
      then a ["serve"] slice to completion; [Core.Resilient] re-plans
      appear the same way under cat ["replan"]).

    Recording is disabled by default; while disabled every emitter costs a
    single atomic load.  Events are rendered at record time and buffered in
    memory — tracing a run is an explicit, bounded request ([--trace]),
    unlike the always-cheap registries. *)

val set_enabled : bool -> unit
(** Enabling (from disabled) stamps the wall-clock origin that "X" event
    timestamps are measured from. *)

val enabled : unit -> bool

val complete : name:string -> cat:string -> start_ns:int -> dur_ns:int -> unit
(** Wall-clock duration event (pid 1).  [start_ns] is a {!Clock.now_ns}
    reading.  No-op while disabled (as are all emitters below). *)

val instant : ?args:(string * string) list -> name:string -> cat:string ->
  slot:int -> unit -> unit
(** Simulated-time instant event.  [args] values must already be valid JSON
    fragments (e.g. [string_of_int n] or an escaped, quoted string). *)

val counter : name:string -> slot:int -> (string * int) list -> unit
(** Counter track sample: one series per key. *)

val async_begin : name:string -> cat:string -> id:int -> slot:int -> unit

val async_end : name:string -> cat:string -> id:int -> slot:int -> unit
(** Async slices join by ([cat], [id]); begin/end pairs must use the same
    [name]. *)

val capture : (unit -> 'a) -> 'a * string list
(** [capture f] redirects this domain's emissions into a private buffer
    and returns the rendered event fragments (oldest first) with [f]'s
    result — the per-job side of {!Core.Engine.run_many}'s deterministic
    trace merge.  Scopes nest and are domain-local. *)

val append : string list -> unit
(** Re-inject captured fragments into the shared buffer, in order (no-op
    while disabled). *)

val length : unit -> int
(** Recorded (non-metadata) events. *)

val reset : unit -> unit
(** Drop recorded events; the enabled flag and origin are unchanged. *)

val to_json : unit -> string
(** The full document: [{"displayTimeUnit":...,"traceEvents":[...]}] with
    process/thread-naming metadata prepended. *)

val write : string -> unit

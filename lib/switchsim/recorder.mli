(** Recording, exporting and replaying schedules.

    A run's {e transcript} is the list of transfers each slot committed,
    first slot first: the one per-slot record of a schedule.  Replaying it
    against a fresh simulator re-validates every slot against the matching
    and release constraints and recomputes all metrics, and a faulted
    run's transcript is certified against its fault plan by
    [Faults.Audit.check] — an end-to-end audit trail: any claimed schedule
    can be handed around as a CSV file and independently checked.

    A transcript is built with a {!log}: [Core.Policy.recorded] adds each
    decision of a policy to one as the run takes it. *)

type t = private {
  ports : int;
  slots : Simulator.transfer list array;  (** index 0 = first slot *)
}

type log
(** A transcript being built, for one run. *)

val log : ports:int -> log
(** An empty log.  @raise Invalid_argument if [ports <= 0]. *)

val add : log -> Simulator.transfer list -> slots:int -> unit
(** [add log transfers ~slots] appends [slots] consecutive slots that all
    committed [transfers] — one slot for a per-slot decision, [n] for a
    batched one.  @raise Invalid_argument if [slots < 1]. *)

val contents : log -> t
(** The slots added so far, first slot first. *)

val replay : ?net:Net.t -> t -> (int * Matrix.Mat.t) list -> Simulator.t
(** Re-execute the log against a fresh simulator over the given demands
    (on [net] when the log was recorded on a multi-fabric topology).
    @raise Simulator.Invalid_slot if any slot is infeasible — e.g. the log
    was edited, or belongs to a different instance.  The returned simulator
    holds the completion times. *)

val to_csv : t -> string
(** Header [slot,src,dst,coflow], one row per transfer; idle slots appear
    only through gaps in the slot column, so the line
    [# ports=P slots=S] records the geometry.  A transfer routed over a
    nonzero fabric carries it as a fifth column; single-fabric logs keep
    the legacy 4-column shape byte for byte. *)

val of_csv : string -> t
(** @raise Failure on malformed input, a slot count no array can hold
    included. *)

val save : string -> t -> unit

val load : string -> t

(** Recording, exporting and replaying schedules.

    A recorded schedule is the full per-slot transfer log.  Replaying it
    against a fresh simulator re-validates every slot against the matching
    and release constraints and recomputes all metrics — an end-to-end
    audit trail: any claimed schedule can be handed around as a CSV file
    and independently checked. *)

type t = private {
  ports : int;
  slots : Simulator.transfer list array;  (** index 0 = first slot *)
}

val record :
  ?max_slots:int ->
  Simulator.t ->
  policy:(Simulator.t -> Simulator.transfer list) ->
  t
(** Drive the per-slot [policy] to completion through {!Simulator.run},
    one slot per decision, while logging every slot.  [max_slots] and the
    failures as in {!Simulator.run}. *)

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
(** @raise Failure on malformed input. *)

val save : string -> t -> unit

val load : string -> t

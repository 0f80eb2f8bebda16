(** Named monotonic counters and float gauges.

    Handles are interned in a process-wide registry: [make name] returns
    the same counter for the same name, so independent modules can
    contribute to one metric.  Increments are lock-free ([Atomic]);
    registry creation is mutex-guarded, so handles may be created from any
    thread. *)

type t

val make : string -> t
(** Find or create the counter registered under [name]. *)

val name : t -> string

val incr : ?by:int -> t -> unit
(** Add [by] (default 1).  Thread-safe, allocation-free. *)

val value : t -> int

val dump : unit -> (string * int) list
(** Every registered counter, sorted by name. *)

val reset_all : unit -> unit
(** Zero every counter (handles stay valid — runs are comparable). *)

(** Float-valued gauges (last-write-wins), same registry discipline. *)
module Gauge : sig
  type g

  val make : string -> g

  val set : g -> float -> unit

  val value : g -> float

  val dump : unit -> (string * float) list

  val reset_all : unit -> unit
end

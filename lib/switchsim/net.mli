(** Multi-fabric network topology: [k] parallel switches over the same
    [ports] ingress/egress ports, each fabric with its own link rate and
    an optional two-tier oversubscription: ports grouped into racks, at
    most [core_capacity] inter-rack transfers per slot.

    Chen (arXiv:2312.16413) studies coflow scheduling on exactly this
    model — heterogeneous parallel networks, where every port pair is
    connected through [k] switches of different speeds and a flow may be
    routed over any of them.  A transfer on fabric [f] moves up to
    [rate f] units per slot; within one fabric each ingress and egress
    port still carries at most one transfer per slot.

    [single ~ports] (one fabric, rate 1, no oversubscription) is the
    paper's original non-blocking crossbar, and every simulator built
    without an explicit net runs on it — the multi-fabric code path is
    the only code path. *)

type fabric = private {
  rate : int;  (** units moved per pair per slot; >= 1 *)
  rack_size : int option;
      (** ports per rack when this fabric is oversubscribed *)
  core_capacity : int option;
      (** max inter-rack transfers per slot on this fabric *)
}

type t

val fabric : ?rack_size:int -> ?core_capacity:int -> int -> fabric
(** [fabric ~rack_size ~core_capacity rate].  Oversubscription is all or
    nothing: [core_capacity] requires [rack_size].
    @raise Invalid_argument on [rate < 1], a non-positive rack size, a
    negative core capacity, or a capacity without a rack size. *)

val make : ports:int -> fabric list -> t
(** @raise Invalid_argument on [ports <= 0], an empty fabric list, or a
    fabric whose [rack_size] exceeds [ports]. *)

val single : ports:int -> t
(** One fabric, rate 1, non-blocking: the paper's model. *)

val two_tier : ports:int -> rack_size:int -> core_capacity:int -> t
(** One rate-1 fabric with racks of [rack_size] ports and at most
    [core_capacity] inter-rack transfers per slot — the E15 sweep's
    topology.  [core_capacity = ports] is non-blocking in effect; a 10:1
    oversubscription is [ports / 10]. *)

val uniform : ports:int -> rates:int list -> t
(** [k = length rates] non-blocking fabrics with the given rates. *)

val ports : t -> int

val k : t -> int
(** Number of parallel fabrics; >= 1. *)

val fabric_of : t -> int -> fabric
(** @raise Invalid_argument when the index is out of range. *)

val rate : t -> int -> int
(** Rate of fabric [f]. *)

val total_rate : t -> int
(** Sum of all fabric rates — the aggregate per-port speed [S] that the
    rate-aware isolation bound [sum w (r + rho/S)] and the Chen charging
    scheme are built on. *)

val by_rate : t -> int array
(** Fabric indices sorted fastest first (ties by index, ascending) — the
    routing order of every rate-aware sweep: a pair lands on the fastest
    fabric that can still take it. *)

val rack_of : t -> fabric:int -> int -> int
(** Rack of a port on an oversubscribed fabric; every port is rack 0 on
    a non-blocking fabric. *)

val crosses_core : t -> fabric:int -> src:int -> dst:int -> bool
(** Whether a transfer on fabric [fabric] crosses that fabric's core.
    Always [false] on a non-blocking fabric. *)

val core_capacity : t -> int -> int option
(** Per-slot inter-rack budget of fabric [f]; [None] = non-blocking. *)

val is_single : t -> bool
(** [true] iff the net is exactly the paper's model: one fabric, rate 1,
    no oversubscription. *)

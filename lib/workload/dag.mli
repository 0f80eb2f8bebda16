(** Precedence-constrained coflow workloads (the "addition of other
    realistic constraints, such as precedence constraints" from the paper's
    conclusion).

    A job is a DAG of stages; each stage is a coflow that becomes available
    only when all its predecessors have completed — exactly the
    computation/communication alternation of the MapReduce-style frameworks
    in the paper's introduction (a reduce stage cannot start before its
    shuffle finishes, a downstream join cannot start before both its inputs
    are materialised). *)

type stage = {
  id : int;
  weight : float;
  demand : Matrix.Mat.t;
  deps : int list;  (** ids of stages that must complete first *)
}

type t = private { ports : int; stages : stage array }

val make : ports:int -> stage list -> t
(** Validates dimensions, id uniqueness, dependency references and
    acyclicity.  @raise Invalid_argument on violation, with a cycle witness
    in the message when one exists. *)

val ports : t -> int

val num_stages : t -> int

val stage : t -> int -> stage
(** By working index (list order), like {!Instance.coflow}. *)

val index_of_id : t -> int -> int
(** @raise Not_found for unknown ids. *)

val deps_of : t -> int -> int list
(** Working indices of the dependencies of the stage at working index
    [k]. *)

val successors_of : t -> int -> int list

val roots : t -> int list
(** Working indices with no dependencies. *)

val sinks : t -> int list

val critical_path_load : t -> int array
(** For each stage, the maximum total [rho] along any downstream path
    including the stage itself — the classic critical-path priority key. *)

val random :
  ?stages_per_job:int ->
  ?jobs:int ->
  ?max_flow_size:int ->
  ports:int ->
  Random.State.t ->
  t
(** Synthetic multi-stage jobs: each job is a random fork-join-ish DAG of
    [stages_per_job] (default [4]) shuffle stages; [jobs] defaults to [8]. *)

(** Scheduling precedence-constrained coflow DAGs ({!Workload.Dag}).

    A stage is released the moment its last dependency completes, so the
    release dates are {e endogenous} — they depend on the schedule itself.
    The offline Algorithm 2 does not apply directly (its LP needs fixed
    release dates); the natural policies are dynamic, and this module
    provides three:

    - {b critical path}: serve stages with the largest remaining downstream
      load first (the classic DAG heuristic);
    - {b weighted bottleneck}: the online SEBF-with-weights rule, ignoring
      DAG structure beyond availability;
    - {b FIFO}: by the order stages became available.

    Every policy is executed on the switch simulator with per-slot greedy
    matchings ({!Policy.greedy_matching}) in priority order. *)

type priority = Critical_path | Weighted_bottleneck | Fifo

val priority_name : priority -> string

val all_priorities : priority list

type result = {
  stage_completion : int array;  (** per working index *)
  job_completion : (int * int) list;
      (** [(sink working index, completion slot)] — one entry per sink;
          a job's completion is its sinks' maximum *)
  stage_twct : float;  (** weighted over stages *)
  makespan : int;
}

val run : ?max_slots:int -> priority -> Workload.Dag.t -> result
(** Step the DAG to completion through {!Switchsim.Simulator.run}, one
    slot per decision.  [max_slots] and the failures as there. *)

val total_sink_completion : result -> int
(** Sum of sink completion times — the "all jobs finished" objective. *)

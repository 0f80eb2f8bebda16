(** The arena harness behind E15, E18, E19 and E21: race contenders on
    shared seeds against a certified lower bound, assert the run's own
    inequalities, rank, render, and emit one JSON schema (DESIGN.md §14):

    {v
    {"experiment", "legs": [{"id", "label", "ports", "coflows",
      "net": [{"rate", "rack_size", "core_capacity"}],
      "bound": {"name", "value"}, "target": "bound" | "best_twct",
      "rows": [{"rank", "algo", "fallback", "guarantee", "twct", "ratio",
                "slots", "mean_completion", "p95_completion", "utilization",
                "matchings", "decisions", "decision_us", "seconds"}],
      "checks": {"<name>": bool}}]}
    v}

    Absent values are [null].  Everything but [seconds] and [decision_us]
    is identical at any [--jobs]. *)

type outcome = {
  result : Core.Engine.result;
      (** the run; its [decisions] fill the row's decision columns *)
  checks : (string * bool) list;  (** named verdicts the run must pass *)
}

type contender = {
  name : string;
  guarantee : float option;  (** proven (or claimed) approximation factor *)
  fallback : string option;
      (** the substitute run in place of the named algorithm, which the
          name carries too, e.g. ["H_LP(fallback:H_rho)"] *)
  run : Workload.Instance.t -> Switchsim.Net.t -> outcome;
}

val contender : string -> Core.Policy.t -> contender
(** The policy on a fresh simulator over the leg's net; no guarantee,
    no fallback. *)

type target = Bound | Best_twct

type spec = {
  id : string;  (** gauge prefix: [arena.<id>.<slug algo>.decision_us] *)
  label : string;
  inst : Workload.Instance.t;
  net : Switchsim.Net.t;
  bound_name : string;
  bound : float;
  target : target;
      (** guaranteed rows are held to [factor x] the bound, or to
          [factor x] the best TWCT (an upper bound on OPT) where the bound
          is too loose *)
  contenders : contender list;
}

type row = {
  algo : string;
  fallback : string option;
  guarantee : float option;
  twct : float;
  ratio : float;  (** TWCT over the bound; [nan] if the bound is 0 *)
  slots : int;
  mean_c : float;
  p95_c : int;
  utilization : float;
  matchings : int;
  decisions : int;
  decision_us : float;
  seconds : float;
}

type leg = {
  spec : spec;
  rows : row list;  (** ranked by ascending (TWCT, algo) *)
  checks : (string * bool) list;
}

val race : jobs:int -> spec list -> leg list
(** Every (leg, contender) pair is one {!Core.Engine.run_many} job.
    Statistics over an empty instance raise [Invalid_argument] naming the
    algorithm and leg.
    @raise Failure naming leg and algorithm when a row beats the bound, a
    guaranteed row exceeds its factor of the target, or a check fails. *)

val isolation_leg :
  id:string ->
  label:string ->
  net:Switchsim.Net.t ->
  Workload.Instance.t ->
  contender list ->
  spec
(** A leg held to the isolation bound
    [sum_k w_k (r_k + ceil (rho (D_k) / S))], [S = Net.total_rate] ([S = 1]
    on [Net.single]): a bottleneck port moves at most [S] units per slot,
    so the bound is certified at any scale.  Target [Bound]. *)

val lp_free : Workload.Instance.t -> contender list
(** Greedy list schedules over the LP-free orders: [SG] (factor 5 / 4),
    [Chen] (claimed 4.36 / 3.61), [H_pd], [H_rho], [H_size], [H_A]. *)

val budgeted_hlp :
  lp_budget:int -> Workload.Instance.t -> string * string option * Core.Ordering.t
(** [(name, fallback, order)]: ["H_LP"] and the interval-LP order, or —
    when the pivot budget runs out — ["H_LP(fallback:H_rho)"],
    [Some "H_rho"] and the H_rho order. *)

val slug : string -> string
(** Lower-case alphanumerics, other runs collapsed to ['_']. *)

val render : leg list -> string

val json : experiment:string -> leg list -> string

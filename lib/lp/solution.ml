type status = Optimal | Infeasible | Unbounded | Iteration_limit | Time_limit

type t = {
  status : status;
  objective : float;
  values : float array;
  iterations : int;
  refactors : int;
  duals : float array option;
  basis : int array option;
}

let value t v = t.values.((v : Model.var :> int))

let status_to_string = function
  | Optimal -> "optimal"
  | Infeasible -> "infeasible"
  | Unbounded -> "unbounded"
  | Iteration_limit -> "iteration-limit"
  | Time_limit -> "time-limit"

type config = {
  max_live : int;
  deadline_factor : float;
  deadline_slack : int;
}

let default_config =
  { max_live = 64; deadline_factor = 8.0; deadline_slack = 32 }

let validate cfg =
  if cfg.max_live < 1 then
    invalid_arg "Admission.validate: max_live must be >= 1";
  if cfg.deadline_slack < 0 then
    invalid_arg "Admission.validate: negative deadline_slack"

type reason = Queue_full | Deadline_unmeetable

type decision = Admit of { deadline : int option } | Reject of reason

let isolation_bound demand = Matrix.Mat.load demand

let decide cfg ~ports ~live ~backlog_units ~now (c : Arrivals.coflow) =
  if live >= cfg.max_live then Reject Queue_full
  else if cfg.deadline_factor <= 0.0 then Admit { deadline = None }
  else begin
    let bound = isolation_bound c.Arrivals.demand in
    let deadline =
      now + cfg.deadline_slack
      + int_of_float (ceil (cfg.deadline_factor *. float_of_int bound))
    in
    (* optimistic completion estimate: the existing backlog drains at the
       full fabric rate, then the coflow runs at its isolation bound — if
       even this cannot meet the deadline, admission would only hand the
       coflow a guaranteed SLO miss *)
    let estimate = now + (backlog_units / ports) + bound in
    if estimate > deadline then Reject Deadline_unmeetable
    else Admit { deadline = Some deadline }
  end

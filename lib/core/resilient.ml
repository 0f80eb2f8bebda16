open Workload
open Switchsim
open Faults

type tier = Lp | Rho | Arrival

let tier_name = function Lp -> "lp" | Rho -> "rho" | Arrival -> "arrival"

let tier_index = function Lp -> 0 | Rho -> 1 | Arrival -> 2

let all_tiers = [ Lp; Rho; Arrival ]

type config = {
  primary : tier;
  lp_deadline : float option;
  lp_max_iterations : int;
  lp_retries : int;
  lp_warm_start : bool;
  max_slots : int;
}

let default_config =
  { primary = Lp;
    lp_deadline = Some 5.0;
    lp_max_iterations = 200_000;
    lp_retries = 1;
    lp_warm_start = true;
    max_slots = 10_000_000;
  }

type result = {
  completion : int array;
  twct : float;
  slots : int;
  tier_slots : (tier * int) list;
  replans : int;
  lp_failures : int;
  lp_iterations : int;
  lp_refactors : int;
  audit : Recorder.t;
  engine : Engine.result;
}

(* The unfinished part of the run as a fresh instance: remaining demands,
   releases shifted to be relative to [now].  [keep.(i)] maps residual index
   [i] back to the original coflow index. *)
let residual_instance inst sim =
  let now = Simulator.now sim in
  let n = Instance.num_coflows inst in
  let keep = ref [] in
  for k = n - 1 downto 0 do
    if not (Simulator.is_complete sim k) then keep := k :: !keep
  done;
  let keep = Array.of_list !keep in
  let coflows =
    Array.to_list
      (Array.map
         (fun k ->
           let c = Instance.coflow inst k in
           let release = max 0 (Simulator.release_time sim k - now) in
           { c with Instance.release; demand = Simulator.remaining sim k })
         keep)
  in
  (keep, Instance.make ~ports:(Instance.ports inst) coflows)

let lp_tier ~max_iterations ~deadline ~retries ~warm_start ~warm ~ids ~origin
    ~on_failure inst =
  let inv = Hashtbl.create (Array.length ids) in
  Array.iteri (fun i id -> Hashtbl.replace inv id i) ids;
  let warm_start =
    if not warm_start then None
    else
      Option.map
        (Lp_relax.remap_hints ~index_map:(Hashtbl.find_opt inv)
           ~time_shift:(float_of_int origin))
        !warm
  in
  let rec attempt i deadline =
    match
      Lp_relax.solve_interval ~max_iterations ?deadline ?warm_start inst
    with
    | lp ->
      warm :=
        Option.map
          (Lp_relax.remap_hints
             ~index_map:(fun i -> Some ids.(i))
             ~time_shift:(-.float_of_int origin))
          lp.Lp_relax.warm;
      Some lp
    | exception (Failure _ | Lp_relax.Too_large _ | Invalid_argument _) ->
      on_failure ();
      if i < retries then
        (* back off by doubling the time budget before retrying *)
        attempt (i + 1) (Option.map (fun d -> 2.0 *. d) deadline)
      else None
  in
  attempt 0 deadline

let chain ~primary ~outage ~lp inst =
  match (primary, outage) with
  | _, `Full | Arrival, _ -> (Arrival, Ordering.arrival inst)
  | Lp, `None -> (
    match lp () with
    | Some lp -> (Lp, lp.Lp_relax.order)
    | None -> (Rho, Ordering.by_load_over_weight inst))
  | Rho, _ | Lp, `Lp_only -> (Rho, Ordering.by_load_over_weight inst)

let c_replans = Obs.Counter.make "resilient.replans"

let c_lp_failures = Obs.Counter.make "resilient.lp_failures"

(* One re-planning round: walk the chain on the residual instance and map
   its order back to original coflow indices.  [warm] is keyed by
   original coflow index with absolute times; [lp_stats] accumulates
   (iterations, refactors) over successful solves. *)
let replan cfg inj inst ~warm ~lp_stats ~on_lp_failure =
  Obs.Span.with_ "resilient.replan" @@ fun () ->
  let sim = Injector.sim inj in
  let now = Simulator.now sim in
  let keep, resid = residual_instance inst sim in
  let lp () =
    let lp =
      lp_tier ~max_iterations:cfg.lp_max_iterations ~deadline:cfg.lp_deadline
        ~retries:cfg.lp_retries ~warm_start:cfg.lp_warm_start ~warm ~ids:keep
        ~origin:now ~on_failure:on_lp_failure resid
    in
    Option.iter
      (fun { Lp_relax.iterations; refactors; _ } ->
        let i, r = !lp_stats in
        lp_stats := (i + iterations, r + refactors))
      lp;
    lp
  in
  let tier, order =
    chain ~primary:cfg.primary
      ~outage:(Fault_plan.solver_outage (Injector.plan inj) ~slot:now)
      ~lp resid
  in
  (tier, Array.map (Array.get keep) order)

let run ?(config = default_config) ?net ?(plan = Fault_plan.empty) inst =
  Obs.Span.with_ "resilient.run" @@ fun () ->
  let ports = Instance.ports inst in
  let inj = Injector.create ?net ~plan ~ports (Instance.demands inst) in
  let sim = Injector.sim inj in
  let faults = Injector.faults inj in
  let lp_failures = ref 0 and replans = ref 0 in
  let warm = ref None and lp_stats = ref (0, 0) in
  let on_lp_failure () =
    incr lp_failures;
    Obs.Counter.incr c_lp_failures
  in
  (* the tier in force served every slot since it was planned *)
  let tier_counts = Array.make 3 0 and planned_at = ref 0 in
  let credit tier ~now =
    let i = tier_index tier in
    tier_counts.(i) <- tier_counts.(i) + (now - !planned_at);
    planned_at := now
  in
  let order = ref [||] in
  let tier = ref config.primary in
  let need_replan = ref true in
  let boundaries = ref (Fault_plan.boundaries plan) in
  let view = Policy.live_view () in
  (* open "replan" trace slice: (async id, tier it planned with) *)
  let open_plan = ref None in
  let close_plan ~slot =
    match !open_plan with
    | None -> ()
    | Some (id, t) ->
      Obs.Trace.async_end ~name:(tier_name t) ~cat:"replan" ~id ~slot;
      open_plan := None
  in
  (* One decision: tick, drain the due fault boundaries, re-plan if one was
     crossed, serve greedily.  Its cap is the next fault-state change and
     the next boundary (a solver-outage edge changes no serving state but
     forces a re-plan). *)
  let decide s ~max_n =
    Injector.tick inj;
    let now = Simulator.now s in
    let rec drain () =
      match !boundaries with
      | b :: rest when b <= now ->
        boundaries := rest;
        need_replan := true;
        if Obs.Trace.enabled () then
          Obs.Trace.instant ~name:"fault-boundary" ~cat:"fault" ~slot:b ();
        drain ()
      | _ -> ()
    in
    drain ();
    if !need_replan then begin
      let t, o = replan config inj inst ~warm ~lp_stats ~on_lp_failure in
      credit !tier ~now;
      tier := t;
      order := o;
      if Obs.Trace.enabled () then begin
        (* each re-plan is one slice on the "replan" async track, labelled
           with the tier that produced the order in force *)
        close_plan ~slot:now;
        Obs.Trace.async_begin ~name:(tier_name t) ~cat:"replan" ~id:!replans
          ~slot:now;
        open_plan := Some (!replans, t)
      end;
      incr replans;
      Obs.Counter.incr c_replans;
      need_replan := false
    end;
    let transfers =
      Policy.greedy_matching ~faults s
        ~priority:(Policy.live_slice view s !order ~pos:0)
    in
    let next = match !boundaries with b :: _ -> b | [] -> max_int in
    (transfers, min max_n (min (Fault_plan.stable_until faults) next - now))
  in
  let log = Recorder.log ~ports in
  let policy =
    Policy.recorded log
      (Policy.make ~describe:"resilient" (fun _ ->
           Policy.stepper ~next_batch:decide (fun s -> fst (decide s ~max_n:1))))
  in
  let er = Engine.run ~max_slots:config.max_slots ~sim inst policy in
  credit !tier ~now:(Simulator.now sim);
  if Obs.Trace.enabled () then close_plan ~slot:(Simulator.now sim);
  { completion = er.Engine.completion;
    twct = er.Engine.twct;
    slots = er.Engine.slots;
    tier_slots = List.map (fun t -> (t, tier_counts.(tier_index t))) all_tiers;
    replans = !replans;
    lp_failures = !lp_failures;
    lp_iterations = fst !lp_stats;
    lp_refactors = snd !lp_stats;
    audit = Recorder.contents log;
    engine = er;
  }

open Workload
open Core
open Faults

type entry = {
  primary : Resilient.tier;
  result : Resilient.result;
  audit_ok : bool;
}

type row = { intensity : float; plan : Fault_plan.t; entries : entry list }

(* The sweep re-solves the residual LP at every fault boundary, so the
   instance is capped independently of --scale to keep E16 interactive;
   the fault model, not raw size, is what is under study here. *)
let instance (cfg : Config.t) =
  let cfg =
    { cfg with Config.ports = min cfg.Config.ports 14; coflows = min cfg.Config.coflows 100 }
  in
  Harness.random_weights cfg ~salt:0xFA17
    (Instance.filter_m0 (Harness.base_instance cfg)
       (max 2 (cfg.Config.ports / 3)))

(* Fault windows are drawn against the expected busy span of the schedule,
   not the naive horizon (max release + total units), which is a factor
   [ports] too long for multi-port instances. *)
let fault_horizon inst =
  let units = Instance.total_units inst in
  let max_release =
    Array.fold_left max 0 (Instance.releases inst)
  in
  max_release + max 8 (2 * units / Instance.ports inst)

(* Deterministic sweep config: pivot budget instead of a wall-clock
   deadline, so replaying a seed gives byte-identical transcripts. *)
let sweep_config primary =
  { Resilient.default_config with
    Resilient.primary;
    lp_deadline = None;
    lp_max_iterations = 60_000;
    lp_retries = 1;
  }

let plan_for (cfg : Config.t) inst ~intensity ~index =
  let st = Random.State.make [| cfg.Config.seed; 0xFA17; index |] in
  Fault_plan.random ~intensity ~ports:(Instance.ports inst)
    ~coflows:(Instance.num_coflows inst) ~horizon:(fault_horizon inst) st

let run (cfg : Config.t) =
  let inst = instance cfg in
  List.mapi
    (fun index intensity ->
      let plan = plan_for cfg inst ~intensity ~index in
      let entries =
        List.map
          (fun primary ->
            let result =
              Resilient.run ~config:(sweep_config primary) ~plan inst
            in
            let audit_ok = Audit.check ~plan result.Resilient.audit = Ok () in
            { primary; result; audit_ok })
          [ Resilient.Arrival; Resilient.Rho; Resilient.Lp ]
      in
      { intensity; plan; entries })
    [ 0.0; 0.5; 1.0; 2.0 ]

let find row primary =
  List.find (fun e -> e.primary = primary) row.entries

let twct row primary = (find row primary).result.Resilient.twct

let tier_slots result t =
  try List.assoc t result.Resilient.tier_slots with Not_found -> 0

(* ---------- degradation-chain demonstration ---------- *)

type demo = {
  label : string;
  demo_plan : Fault_plan.t;
  demo_result : Resilient.result;
  demo_audit_ok : bool;
}

let chain_demo (cfg : Config.t) =
  let inst = instance cfg in
  let h = fault_horizon inst in
  let scenario label ?(config = sweep_config Resilient.Lp) events =
    let demo_plan = Fault_plan.make events in
    let demo_result = Resilient.run ~config ~plan:demo_plan inst in
    { label;
      demo_plan;
      demo_result;
      demo_audit_ok = Audit.check ~plan:demo_plan demo_result.Resilient.audit = Ok ();
    }
  in
  [ scenario "fault-free (H_LP throughout)" [];
    scenario "LP outage + stats outage windows"
      [ Fault_plan.Solver_outage { from_ = h / 4; until = h / 2; full = false };
        Fault_plan.Solver_outage { from_ = h / 2; until = h; full = true };
      ];
    scenario "solver deadline 0s (every LP solve times out)"
      ~config:
        { (sweep_config Resilient.Lp) with
          Resilient.lp_deadline = Some 0.0;
          lp_retries = 1;
        }
      [ Fault_plan.Solver_outage { from_ = h / 2; until = h; full = true } ];
  ]

(* ---------- rendering ---------- *)

let render cfg =
  let rows = run cfg in
  let base primary =
    match rows with
    | first :: _ -> twct first primary
    | [] -> nan
  in
  let sweep =
    Report.table
      ~title:
        "Fault-intensity sweep: seeded fault plans (port outages, link \
         slowdowns, core degradation, stragglers, delayed releases, solver \
         outages), resilient greedy service; 'vs 0' is TWCT relative to \
         the same ordering fault-free"
      ~header:
        [ "intensity"; "events"; "TWCT H_A"; "vs 0"; "TWCT H_rho"; "vs 0";
          "TWCT H_LP"; "vs 0"; "audit" ]
      (List.map
         (fun row ->
           let cell primary =
             [ Report.f2 (twct row primary);
               Report.f2 (twct row primary /. base primary);
             ]
           in
           [ Report.f2 row.intensity;
             string_of_int (List.length (Fault_plan.events row.plan)) ]
           @ cell Resilient.Arrival @ cell Resilient.Rho @ cell Resilient.Lp
           @ [ (if List.for_all (fun e -> e.audit_ok) row.entries then "ok"
                else "FAIL") ])
         rows)
  in
  let diagnostics =
    Report.table
      ~title:
        "H_LP chain diagnostics per intensity: which tier served each slot, \
         re-planning rounds, LP attempts lost to budget/outage"
      ~header:
        [ "intensity"; "slots"; "lp"; "rho"; "arrival"; "replans";
          "lp failures" ]
      (List.map
         (fun row ->
           let r = (find row Resilient.Lp).result in
           [ Report.f2 row.intensity;
             string_of_int r.Resilient.slots;
             string_of_int (tier_slots r Resilient.Lp);
             string_of_int (tier_slots r Resilient.Rho);
             string_of_int (tier_slots r Resilient.Arrival);
             string_of_int r.Resilient.replans;
             string_of_int r.Resilient.lp_failures;
           ])
         rows)
  in
  let demo =
    Report.table
      ~title:
        "Degradation chain H_LP -> H_rho -> H_A under injected solver \
         faults (same instance, fault-free network)"
      ~header:
        [ "scenario"; "slots"; "lp"; "rho"; "arrival"; "replans";
          "lp failures"; "TWCT"; "audit" ]
      (List.map
         (fun d ->
           let r = d.demo_result in
           [ d.label;
             string_of_int r.Resilient.slots;
             string_of_int (tier_slots r Resilient.Lp);
             string_of_int (tier_slots r Resilient.Rho);
             string_of_int (tier_slots r Resilient.Arrival);
             string_of_int r.Resilient.replans;
             string_of_int r.Resilient.lp_failures;
             Report.f2 r.Resilient.twct;
             (if d.demo_audit_ok then "ok" else "FAIL");
           ])
         (chain_demo cfg))
  in
  sweep ^ "\n" ^ diagnostics ^ "\n" ^ demo

open Workload
open Core
open Switchsim
open Faults

(* Same workload construction as E15: the first-filter fb-like trace with
   seeded random-permutation weights, so the hetero tables are directly
   comparable with the oversubscription sweep. *)
let instance cfg =
  Harness.random_weights cfg ~salt:0x4E7 (Harness.first_filter cfg)

let sweep =
  [ ("k=1", [ 1 ]);
    ("k=2 1:1", [ 1; 1 ]);
    ("k=2 4:1", [ 4; 1 ]);
    ("k=2 10:1", [ 10; 1 ]);
    ("k=4 1:1", [ 1; 1; 1; 1 ]);
    ("k=4 4:1", [ 4; 1; 1; 1 ]);
    ("k=4 10:1", [ 10; 1; 1; 1 ]);
  ]

let leg inst ~label ~net =
  Arena.isolation_leg ~id:(Arena.slug label) ~label ~net inst

(* The fault leg: a 4:1 two-fabric net loses its fast fabric mid-run and
   the resilient loop (H_rho primary — no LP cost) re-plans the residual
   onto the survivor.  Certification is independent of the serving loop:
   the transcript is re-checked with per-fabric constraints and scanned
   for any transfer that rode the dead fabric inside the window. *)
let resilient_contender ~from_ ~until =
  let run inst net =
    let plan = Fault_plan.make [ Fabric_down { fabric = 0; from_; until } ] in
    let config =
      { Resilient.default_config with Resilient.primary = Resilient.Rho }
    in
    let r = Resilient.run ~config ~net ~plan inst in
    let audit = r.Resilient.audit in
    let slots = audit.Recorder.slots in
    let outage_clean = ref true and served = ref false in
    for s = from_ to min (until - 1) (Array.length slots - 1) do
      List.iter
        (fun { Simulator.fabric; _ } ->
          if fabric = 0 then outage_clean := false else served := true)
        slots.(s)
    done;
    { Arena.result = r.Resilient.engine;
      checks =
        [ ("completed", Array.for_all (fun c -> c >= 0) r.Resilient.completion);
          ("audit_ok", Result.is_ok (Audit.check ~net ~plan audit));
          ("outage_clean", !outage_clean);
          ("served_during_outage", !served);
          ( Printf.sprintf "replanned_at_both_boundaries(%d replans)"
              r.Resilient.replans,
            r.Resilient.replans >= 2 );
        ];
    }
  in
  { Arena.name = "Resilient H_rho"; guarantee = None; fallback = None; run }

let run ?(jobs = 1) (cfg : Config.t) =
  Obs.Span.with_ "exp.hetero" @@ fun () ->
  let inst = instance cfg in
  let ports = Instance.ports inst in
  let net_legs =
    List.map
      (fun (label, rates) ->
        let net = Net.uniform ~ports ~rates in
        (* the single-switch factors are not proven over parallel fabrics *)
        leg inst ~label ~net
          (List.map
             (fun (c : Arena.contender) -> { c with guarantee = None })
             (Arena.lp_free inst)
          @ [ Arena.contender "Chen-hetero" (Chen_hetero.policy ~net inst) ]))
      sweep
  in
  let from_ = 5 and until = 5 + (2 * ports) in
  let fault_leg =
    leg inst
      ~label:
        (Printf.sprintf "fault k=2 4:1, fabric 0 down on [%d, %d)" from_ until)
      ~net:(Net.uniform ~ports ~rates:[ 4; 1 ])
      [ resilient_contender ~from_ ~until ]
  in
  Arena.race ~jobs (net_legs @ [ fault_leg ])

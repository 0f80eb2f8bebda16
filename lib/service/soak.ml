open Workload

type config = {
  process : Arrivals.process;
  params : Fb_like.params option;
  random_weights : bool;
  coflows : int;
  seed : int;
  plan_seed : int;
  loop : Epoch_loop.config;
  wait_p99_slo : int option;
}

let default_config =
  { process = Arrivals.Poisson { mean_gap = 48.0 };
    params = None;
    random_weights = false;
    coflows = 2000;
    seed = 1;
    plan_seed = 1;
    loop =
      { Epoch_loop.default_config with
        faults = Seeded 1.0;
        (* pivot budgets only: wall-clock budgets are not replayable *)
        lp_deadline = None;
      };
    wait_p99_slo = Some 512;
  }

type gate = { gate : string; failure : string option }

type report = {
  stats : Epoch_loop.stats;
  elapsed_s : float;
  replay_fingerprint : string option;
  gates : gate list;
}

let ports cfg =
  match cfg.process with
  | Arrivals.Replay inst -> Instance.ports inst
  | _ -> (
    match cfg.params with Some p -> p.Fb_like.ports | None -> 8)

let run_once ?observer cfg =
  let src =
    Arrivals.create ?params:cfg.params ~random_weights:cfg.random_weights
      ~ports:(ports cfg) ~seed:cfg.seed cfg.process
  in
  Epoch_loop.run ~plan_seed:cfg.plan_seed ?observer cfg.loop src
    ~coflows:cfg.coflows

let run ?(verify_replay = false) ?observer cfg =
  let t0 = Obs.Clock.now_ns () in
  (* the observer watches the primary run only: feeding the replay too
     would fold both runs into one snapshot stream / alert timeline *)
  let stats = run_once ?observer cfg in
  let elapsed_s = Obs.Clock.elapsed_s ~since:t0 in
  let replay_fingerprint =
    if verify_replay then Some (run_once cfg).Epoch_loop.fingerprint else None
  in
  let gates =
    [ { gate = "audit";
        failure =
          (match stats.Epoch_loop.audit_violation with
          | None -> None
          | Some (slot, msg) ->
            Some (Printf.sprintf "slot %d: %s" slot msg));
      };
      { gate = "drained";
        failure =
          (if stats.Epoch_loop.completed = stats.Epoch_loop.admitted then None
           else
             Some
               (Printf.sprintf
                  "completed %d of %d admitted (%d stranded after %d epochs, \
                   %d slots)"
                  stats.Epoch_loop.completed stats.Epoch_loop.admitted
                  (stats.Epoch_loop.admitted - stats.Epoch_loop.completed)
                  stats.Epoch_loop.epochs stats.Epoch_loop.slots));
      };
      { gate = "live-ceiling";
        failure =
          (let ceiling = cfg.loop.Epoch_loop.admission.Admission.max_live in
           if stats.Epoch_loop.max_live <= ceiling then None
           else
             Some
               (Printf.sprintf
                  "observed live high-water %d at epoch %d vs ceiling %d"
                  stats.Epoch_loop.max_live stats.Epoch_loop.max_live_epoch
                  ceiling));
      };
    ]
    @ (match cfg.wait_p99_slo with
      | None -> []
      | Some slo ->
        [ { gate = "slo-p99";
            failure =
              (if stats.Epoch_loop.wait_p99 <= slo then None
               else
                 Some
                   (Printf.sprintf
                      "observed wait p99 = %d slots vs threshold %d (p50 %d, \
                       %d epochs)"
                      stats.Epoch_loop.wait_p99 slo stats.Epoch_loop.wait_p50
                      stats.Epoch_loop.epochs));
          };
        ])
    @
    match replay_fingerprint with
    | None -> []
    | Some fp2 ->
      [ { gate = "replay";
          failure =
            (if String.equal fp2 stats.Epoch_loop.fingerprint then None
             else
               Some
                 (Printf.sprintf
                    "observed fingerprint %s vs replay %s after %d epochs \
                     (seed %d, plan seed %d)"
                    stats.Epoch_loop.fingerprint fp2 stats.Epoch_loop.epochs
                    cfg.seed cfg.plan_seed));
        };
      ]
  in
  { stats; elapsed_s; replay_fingerprint; gates }

let failed r = List.filter (fun g -> g.failure <> None) r.gates

let pp_report ppf r =
  let s = r.stats in
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf
    "arrived %d  admitted %d  rejected %d (queue %d, deadline %d)@,"
    s.Epoch_loop.arrived s.Epoch_loop.admitted
    (s.Epoch_loop.rejected_queue + s.Epoch_loop.rejected_deadline)
    s.Epoch_loop.rejected_queue s.Epoch_loop.rejected_deadline;
  Format.fprintf ppf
    "completed %d  twct %.0f  slots %d  epochs %d  idle-jumps %d@,"
    s.Epoch_loop.completed s.Epoch_loop.twct s.Epoch_loop.slots
    s.Epoch_loop.epochs s.Epoch_loop.idle_jumps;
  Format.fprintf ppf "tiers:";
  List.iter
    (fun (t, n) ->
      Format.fprintf ppf " %s=%d" (Core.Resilient.tier_name t) n)
    s.Epoch_loop.tier_slots;
  Format.fprintf ppf "@,";
  Format.fprintf ppf
    "degradations %d (slo %d)  lp-failures %d  lp-iterations %d@,"
    s.Epoch_loop.degradations s.Epoch_loop.slo_degradations
    s.Epoch_loop.lp_failures s.Epoch_loop.lp_iterations;
  Format.fprintf ppf
    "max-live %d  deadline-misses %d  audited %d  wait p50/p99 %d/%d@,"
    s.Epoch_loop.max_live s.Epoch_loop.deadline_misses
    s.Epoch_loop.audited_slots s.Epoch_loop.wait_p50 s.Epoch_loop.wait_p99;
  Format.fprintf ppf "fingerprint %s  elapsed %.2fs@," s.Epoch_loop.fingerprint
    r.elapsed_s;
  List.iter
    (fun g ->
      match g.failure with
      | None -> Format.fprintf ppf "gate %-12s PASS@," g.gate
      | Some m -> Format.fprintf ppf "gate %-12s FAIL: %s@," g.gate m)
    r.gates;
  Format.fprintf ppf "@]"

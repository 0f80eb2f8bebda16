(* Benchmark / reproduction harness.

   Modes:
     main.exe                 — regenerate every table and figure (E1..E17)
                                at the default scale, then run the Bechamel
                                kernel benchmarks.
     main.exe tables          — only the tables/figures.
     main.exe kernels         — only the Bechamel micro-benchmarks.
     main.exe kernels --json PATH
                              — also write per-kernel ns/run plus LP
                                iteration/refactorization counters to PATH
                                as JSON (a machine-readable perf baseline,
                                e.g. BENCH_<rev>.json).
     main.exe table1|fig2a|fig2b|lowerbound|audit|randomized|releases|openshop
              |...|fabric|faults|soak
                              — a single experiment.
     main.exe obs-diff OLD NEW [--threshold PCT] [--time-threshold PCT]
                              — compare two --profile artifacts; exits 1
                                when a gated metric moved past the
                                threshold (the CI perf-regression gate,
                                run against bench/BASELINE.json).
   Scale is chosen with "--scale quick|default|large"; "--jobs N" runs the
   independent experiment simulations on N domains (identical output at any
   N); "--profile [PATH]"
   writes the profile artifact, "--trace [PATH]" a Perfetto-loadable
   flight-recorder trace (argv grammar in Experiments.Bench_cli). *)

open Bechamel
open Toolkit

let scale = ref Experiments.Config.Default

let jobs = ref 1

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ---------- paper tables and figures ---------- *)

let blocks_cache : Experiments.Harness.block list option ref = ref None

let get_blocks cfg =
  match !blocks_cache with
  | Some b -> b
  | None ->
    Printf.printf
      "[building blocks: %d interval-LP solves + 12 simulations each...]\n%!"
      (2 * List.length cfg.Experiments.Config.filters);
    let b, seconds =
      Obs.Span.timed "bench.blocks" (fun () ->
          Experiments.Harness.all_blocks ~jobs:!jobs cfg)
    in
    Printf.printf "[blocks ready in %.1fs]\n%!" seconds;
    blocks_cache := Some b;
    b

let run_table1 cfg =
  section
    "E1 - Table 1 (normalized TWCT, 3 orders x 4 cases x filters x weights)";
  print_string (Experiments.Exp_table1.render (get_blocks cfg))

let run_fig2a cfg =
  section "E2 - Figure 2a (grouping / backfilling vs base case)";
  print_string (Experiments.Exp_fig2a.render (get_blocks cfg))

let run_fig2b cfg =
  section "E3 - Figure 2b (ordering comparison, case (d))";
  print_string (Experiments.Exp_fig2b.render (get_blocks cfg))

let run_lower_bound cfg =
  section "E4 - LP-EXP lower bound (paper: ratio 0.9447)";
  print_string
    (Experiments.Exp_lower_bound.render (Experiments.Exp_lower_bound.run cfg))

let run_audit cfg =
  section "E5 - theory audit (Lemma 2, Lemma 3, Proposition 1, Theorem 1)";
  print_string (Experiments.Exp_audit.render (get_blocks cfg))

let run_randomized cfg =
  section "E6 - randomized vs deterministic grouping";
  print_string (Experiments.Exp_randomized.render cfg (get_blocks cfg))

let run_releases cfg =
  section "E7 - release-date study (extension)";
  print_string
    (Experiments.Exp_releases.render (Experiments.Exp_releases.run cfg))

(* Concurrent open shop cross-check: diagonal coflows vs the dedicated
   primal-dual algorithm (an ablation of the matching machinery). *)
let run_openshop cfg =
  section "E8 - concurrent open shop cross-check (Appendix A)";
  let st = Random.State.make [| cfg.Experiments.Config.seed; 0x05 |] in
  let machines = 10 and jobs = 40 in
  let job id =
    { Openshop.id;
      weight = float_of_int (1 + Random.State.int st 9);
      release = 0;
      processing =
        Array.init machines (fun _ ->
            if Random.State.float st 1.0 < 0.4 then Random.State.int st 20
            else 0);
    }
  in
  let shop = Openshop.make ~machines (List.init jobs job) in
  let pd = Openshop.primal_dual_order shop in
  let lp = Openshop.lp_order shop in
  let inst = Openshop.to_coflow_instance shop in
  let coflow_run =
    Core.Scheduler.run ~case:Core.Scheduler.Group_backfill inst lp
  in
  let rows =
    [ [ "primal-dual (2-approx) permutation";
        Experiments.Report.f2 (Openshop.twct shop pd);
      ];
      [ "LP-ordered permutation"; Experiments.Report.f2 (Openshop.twct shop lp) ];
      [ "LP-ordered coflow schedule (case d)";
        Experiments.Report.f2 coflow_run.Core.Scheduler.twct;
      ];
      [ "single-machine WSPT lower bound";
        Experiments.Report.f2 (Openshop.sum_load_lower_bound shop);
      ];
    ]
  in
  print_string
    (Experiments.Report.table
       ~title:
         (Printf.sprintf "Diagonal-coflow equivalence, %d machines x %d jobs"
            machines jobs)
       ~header:[ "algorithm"; "TWCT" ] rows)

let run_orderings cfg =
  section "E10 - ordering portfolio (incl. primal-dual and Varys-style \
           baselines)";
  print_string (Experiments.Exp_orderings.render (get_blocks cfg))

let run_lp_grid cfg =
  section "E11 - LP interval-grid ablation (interval- vs time-indexed)";
  print_string (Experiments.Exp_lp_grid.render ~jobs:!jobs cfg)

let run_online cfg =
  section "E12 - online vs offline under arrivals";
  print_string (Experiments.Exp_online.render ~jobs:!jobs cfg)

let run_robust cfg =
  section "E13 - demand-uncertainty study";
  print_string (Experiments.Exp_robust.render cfg)

let run_ablation cfg =
  section "E9 - scheduling-stage ablation (grouping / backfilling / work \
           conservation)";
  print_string (Experiments.Exp_ablation.render (get_blocks cfg))

let run_dag cfg =
  section "E14 - precedence-constrained coflow DAGs";
  print_string (Experiments.Exp_dag.render cfg)

let run_fabric cfg =
  section "E15 - oversubscribed fabric (non-blocking assumption relaxed)";
  print_string (Experiments.Arena.render (Experiments.Exp_fabric.run ~jobs:!jobs cfg))

let run_faults cfg =
  section "E16 - fault injection and degradation-aware rescheduling";
  print_string (Experiments.Exp_faults.render cfg)

let run_soak cfg =
  section "E17 - service soak (streaming arrivals, admission, degradation)";
  print_string (Experiments.Exp_soak.render cfg)

let all_experiments =
  [ ("table1", run_table1);
    ("fig2a", run_fig2a);
    ("fig2b", run_fig2b);
    ("lowerbound", run_lower_bound);
    ("audit", run_audit);
    ("randomized", run_randomized);
    ("releases", run_releases);
    ("openshop", run_openshop);
    ("ablation", run_ablation);
    ("orderings", run_orderings);
    ("lpgrid", run_lp_grid);
    ("online", run_online);
    ("robust", run_robust);
    ("dag", run_dag);
    ("fabric", run_fabric);
    ("faults", run_faults);
    ("soak", run_soak);
  ]

let run_tables cfg = List.iter (fun (_, f) -> f cfg) all_experiments

(* E19 runs its scale leg at 150x526 and is deliberately not part of
   [run_tables] (nor of the default mode list), like E18: ask for it with
   `bench/main.exe arena`. *)
let run_arena cfg =
  section "E19 - algorithm arena (every policy vs lower bounds)";
  print_string (Experiments.Arena.render (Experiments.Exp_arena.run ~jobs:!jobs cfg))

(* ---------- Bechamel kernel benchmarks ---------- *)

(* The paper-scale matching pair: the same greedy priority scan over the
   same 150-port / 526-coflow instance, once through the simulator's
   sparse bitset views and once as the dense triple loop the seed
   simulator paid every slot (every released coflow probes its full
   [m x m] remaining matrix until a free pair turns up).  Both kernels
   compute the identical matching from the identical state; the ratio is
   the per-slot win the sparse fabric banks at the paper's scale. *)
let paper_scale_matching () =
  let ports = 150 and coflows = 526 in
  let st = Random.State.make [| 18 |] in
  let inst = Workload.Fb_like.generate ~ports ~coflows st in
  let sim =
    Switchsim.Simulator.create ~ports (Workload.Instance.demands inst)
  in
  let priority = Core.Ordering.by_load_over_weight inst in
  (* plain arrays, filled once here: probing [Mat] per cell would make
     this a sparse kernel and quietly raise the ceiling CI gates on *)
  let dense =
    Array.init coflows (fun k ->
        let d = Array.make_matrix ports ports 0 in
        Switchsim.Simulator.iter_remaining sim k (fun i j v -> d.(i).(j) <- v);
        d)
  in
  let dense_matching () =
    let free_src = Array.make ports true in
    let free_dst = Array.make ports true in
    let transfers = ref [] in
    Array.iter
      (fun k ->
        let d = dense.(k) in
        for i = 0 to ports - 1 do
          if free_src.(i) then begin
            let found = ref (-1) in
            let j = ref 0 in
            while !found < 0 && !j < ports do
              if free_dst.(!j) && d.(i).(!j) > 0 then found := !j;
              incr j
            done;
            if !found >= 0 then begin
              free_src.(i) <- false;
              free_dst.(!found) <- false;
              transfers := (i, !found, k) :: !transfers
            end
          end
        done)
      priority;
    !transfers
  in
  let sparse_matching () = Core.Policy.greedy_matching sim ~priority in
  (* the same scan fanned out over a k=4 heterogeneous net: one sweep per
     fabric, fastest first, with the cross-fabric served-pair filter on.
     The delta against matching_sparse is the price of multi-fabric
     routing at the paper's scale. *)
  let net = Switchsim.Net.uniform ~ports ~rates:[ 4; 2; 1; 1 ] in
  let sim_h =
    Switchsim.Simulator.create ~net ~ports (Workload.Instance.demands inst)
  in
  let hetero_matching () = Core.Policy.greedy_matching sim_h ~priority in
  (sparse_matching, dense_matching, hetero_matching)

(* Pre-generated inputs so the staged closures only measure the kernel. *)
let kernel_tests () =
  let st = Random.State.make [| 7 |] in
  let bvn_input = Matrix.Mat.random ~density:0.4 ~max_entry:20 st 32 in
  let sparse_matching, dense_matching, hetero_matching =
    paper_scale_matching ()
  in
  let matching_graph =
    Matching.Bipartite.of_support (fun _ _ -> Random.State.bool st) 96
  in
  let lp_inst =
    Workload.Fb_like.generate ~ports:8 ~coflows:24 (Random.State.make [| 8 |])
  in
  let sched_inst =
    Workload.Fb_like.generate ~ports:16 ~coflows:48 (Random.State.make [| 9 |])
  in
  let sched_order = Core.Ordering.by_load_over_weight sched_inst in
  let tiny_cfg = Experiments.Config.of_scale Experiments.Config.Quick in
  let tiny_cfg =
    { tiny_cfg with
      Experiments.Config.ports = 8;
      coflows = 30;
      filters = [ 4 ];
    }
  in
  Test.make_grouped ~name:"kernels"
    [ Test.make ~name:"E1 pipeline (micro block: LP + 12 schedules)"
        (Staged.stage (fun () ->
             ignore
               (Experiments.Harness.block tiny_cfg ~filter:4
                  ~weighting:Experiments.Harness.Random)));
      Test.make ~name:"bvn_decomposition_32x32"
        (Staged.stage (fun () -> ignore (Core.Bvn.schedule bvn_input)));
      Test.make ~name:"hopcroft_karp_96"
        (Staged.stage (fun () ->
             ignore
               (Matching.Bipartite.max_matching_hopcroft_karp matching_graph)));
      Test.make ~name:"interval_lp_8x24"
        (Staged.stage (fun () -> ignore (Core.Lp_relax.solve_interval lp_inst)));
      Test.make ~name:"grouped_schedule_16x48"
        (Staged.stage (fun () ->
             ignore
               (Core.Scheduler.run ~case:Core.Scheduler.Group_backfill
                  sched_inst sched_order)));
      Test.make ~name:"greedy_baseline_16x48"
        (Staged.stage (fun () ->
             ignore (Core.Baselines.greedy sched_inst sched_order)));
      Test.make ~name:"matching_sparse_150x526"
        (Staged.stage (fun () -> ignore (sparse_matching ())));
      Test.make ~name:"matching_dense_150x526"
        (Staged.stage (fun () -> ignore (dense_matching ())));
      Test.make ~name:"matching_hetero_150x526_k4"
        (Staged.stage (fun () -> ignore (hetero_matching ())));
    ]

(* Counter probe for the JSON baseline: one cold interval-LP solve and one
   warm-started re-solve of the same instance as the interval_lp_8x24
   kernel, so perf trajectories track simplex effort (pivots,
   factorizations) alongside wall-clock.  The numbers are read as deltas of
   the process-wide obs counters — the same registry [--profile] exports —
   so the two artifacts can never drift apart. *)
let lp_counters () =
  let pivots = Obs.Counter.make "lp.pivots" in
  let refactors = Obs.Counter.make "lp.refactors" in
  let snap () = (Obs.Counter.value pivots, Obs.Counter.value refactors) in
  let inst =
    Workload.Fb_like.generate ~ports:8 ~coflows:24 (Random.State.make [| 8 |])
  in
  let p0, r0 = snap () in
  let cold = Core.Lp_relax.solve_interval inst in
  let p1, r1 = snap () in
  let _warm =
    Core.Lp_relax.solve_interval ?warm_start:cold.Core.Lp_relax.warm inst
  in
  let p2, r2 = snap () in
  ((p1 - p0, r1 - r0), (p2 - p1, r2 - r1))

(* Measured end-to-end throughput at the paper's scale for the JSON
   baseline: one full greedy H_rho run of the 150-port / 526-coflow
   instance on the batched event-driven loop.  [slots_per_sec] and
   [coflows_per_sec] are the counters the obs profile exports as gauges;
   the JSON carries them alongside the kernel times so a single artifact
   holds both the micro and the macro view. *)
let throughput_probe () =
  let ports = 150 and coflows = 526 in
  let st = Random.State.make [| 18 |] in
  let inst = Workload.Fb_like.generate ~ports ~coflows st in
  let order = Core.Ordering.by_load_over_weight inst in
  let batch_steps = Obs.Counter.make "sim.batch_steps" in
  let d0 = Obs.Counter.value batch_steps in
  let r = Core.Engine.run inst (Core.Baselines.greedy_policy order) in
  let decisions = Obs.Counter.value batch_steps - d0 in
  (ports, coflows, r.Core.Engine.slots, decisions, r.Core.Engine.seconds)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "unknown" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 -> line
    | _ -> "unknown")
  with _ -> "unknown"

let write_json path rows =
  let (cold_iters, cold_refs), (warm_iters, warm_refs) = lp_counters () in
  let ports, coflows, slots, decisions, seconds = throughput_probe () in
  let kernel_ns name =
    (* rows carry the Bechamel group prefix ("kernels/...") — match on the
       suffix so the lookup survives a regrouping *)
    match
      List.find_opt (fun (n, _, _) -> String.ends_with ~suffix:name n) rows
    with
    | Some (_, ns, _) -> ns
    | None -> nan
  in
  let dense_kernel = "matching_dense_150x526" in
  (* the dense reference cannot finish a full run in CI time, so its
     slots/sec is the matching-kernel ceiling (one matching per slot and
     nothing else) — strictly generous to the dense side *)
  let sparse_tp = if seconds > 0.0 then float_of_int slots /. seconds else nan in
  let dense_ns = kernel_ns dense_kernel in
  let dense_ceiling = if dense_ns > 0.0 then 1e9 /. dense_ns else nan in
  let oc = open_out path in
  let row_json (name, ns, r2) =
    Printf.sprintf
      "    {\"name\": %S, \"ns_per_run\": %.2f, \"r_square\": %.4f}" name ns r2
  in
  Printf.fprintf oc
    "{\n\
    \  \"rev\": %S,\n\
    \  \"kernels\": [\n%s\n  ],\n\
    \  \"lp\": {\n\
    \    \"interval_lp_8x24\": {\n\
    \      \"iterations\": %d,\n\
    \      \"refactors\": %d,\n\
    \      \"warm_iterations\": %d,\n\
    \      \"warm_refactors\": %d\n\
    \    }\n\
    \  },\n\
    \  \"throughput\": {\n\
    \    \"m150_paper_trace\": {\n\
    \      \"ports\": %d,\n\
    \      \"coflows\": %d,\n\
    \      \"slots\": %d,\n\
    \      \"decisions\": %d,\n\
    \      \"seconds\": %.3f,\n\
    \      \"slots_per_sec\": %.1f,\n\
    \      \"coflows_per_sec\": %.2f\n\
    \    },\n\
    \    \"dense_reference\": {\n\
    \      \"matching_ns_per_slot\": %.1f,\n\
    \      \"slots_per_sec_ceiling\": %.1f,\n\
    \      \"sparse_speedup_vs_ceiling\": %.1f\n\
    \    }\n\
    \  }\n\
     }\n"
    (git_rev ())
    (String.concat ",\n" (List.map row_json rows))
    cold_iters cold_refs warm_iters warm_refs ports coflows slots decisions
    seconds sparse_tp
    (if seconds > 0.0 then float_of_int coflows /. seconds else nan)
    dense_ns dense_ceiling
    (sparse_tp /. dense_ceiling);
  close_out oc;
  Printf.printf "[wrote %s]\n" path

let run_kernels ?json () =
  section "Kernel micro-benchmarks (Bechamel, monotonic clock)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 2.0) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] (kernel_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      let ns =
        match Analyze.OLS.estimates result with
        | Some (est :: _) -> est
        | _ -> nan
      in
      let r2 =
        match Analyze.OLS.r_square result with Some r -> r | None -> nan
      in
      rows := (name, ns, r2) :: !rows)
    results;
  let rows = List.sort compare !rows in
  print_string
    (Experiments.Report.table ~header:[ "kernel"; "time / run"; "r^2" ]
       (List.map
          (fun (name, ns, r2) ->
            let time =
              if Float.is_nan ns then "n/a"
              else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
              else Printf.sprintf "%.0f ns" ns
            in
            [ name; time; Printf.sprintf "%.3f" r2 ])
          rows));
  Option.iter (fun path -> write_json path rows) json

(* ---------- entry point ---------- *)

let is_mode m =
  m = "tables" || m = "kernels" || m = "arena"
  || List.mem_assoc m all_experiments

let run_obs_diff (d : Experiments.Bench_cli.diff_opts) =
  let load path =
    try Obs.Profile_diff.load_file path
    with Sys_error msg | Failure msg ->
      Printf.eprintf "obs-diff: %s\n" msg;
      exit 2
  in
  let old_profile = load d.Experiments.Bench_cli.old_path in
  let new_profile = load d.Experiments.Bench_cli.new_path in
  let report =
    Obs.Profile_diff.diff ~threshold:d.Experiments.Bench_cli.threshold
      ?time_threshold:d.Experiments.Bench_cli.time_threshold ~old_profile
      ~new_profile ()
  in
  print_string (Obs.Profile_diff.render report);
  (match d.Experiments.Bench_cli.diff_json with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc (Obs.Profile_diff.to_json report);
    close_out oc;
    Printf.printf "(wrote %s)\n" path);
  match Obs.Profile_diff.regressions report with
  | [] ->
    Printf.printf "obs-diff: OK (no regression past %.1f%%)\n"
      d.Experiments.Bench_cli.threshold;
    exit 0
  | regs ->
    Printf.printf "obs-diff: FAIL — %d metric(s) regressed past %.1f%%\n"
      (List.length regs) d.Experiments.Bench_cli.threshold;
    exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let cli =
    match Experiments.Bench_cli.parse ~is_mode args with
    | Ok cli -> cli
    | Error msg ->
      Printf.eprintf "%s\n%s\n" msg Experiments.Bench_cli.usage;
      exit 2
  in
  Option.iter run_obs_diff cli.Experiments.Bench_cli.diff;
  scale := cli.Experiments.Bench_cli.scale;
  jobs := cli.Experiments.Bench_cli.jobs;
  let json = cli.Experiments.Bench_cli.json in
  let profile = cli.Experiments.Bench_cli.profile in
  let trace = cli.Experiments.Bench_cli.trace in
  if profile <> None || trace <> None then begin
    Obs.Events.set_enabled true;
    Obs.Histogram.set_enabled true
  end;
  if trace <> None then Obs.Trace.set_enabled true;
  let cfg = Experiments.Config.of_scale !scale in
  Printf.printf "scale: %s\n" (Format.asprintf "%a" Experiments.Config.pp cfg);
  (match cli.Experiments.Bench_cli.modes with
  | [] ->
    run_tables cfg;
    run_kernels ?json ()
  | modes ->
    List.iter
      (fun mode ->
        match mode with
        | "tables" -> run_tables cfg
        | "kernels" -> run_kernels ?json ()
        | "arena" -> run_arena cfg
        | m -> (
          match List.assoc_opt m all_experiments with
          | Some f -> f cfg
          | None ->
            Printf.eprintf "unknown mode %S\n%s\n" m
              Experiments.Bench_cli.usage;
            exit 2))
      modes);
  Option.iter
    (fun path ->
      Obs.Profile.write path;
      Printf.printf "[wrote %s]\n" path)
    profile;
  Option.iter
    (fun path ->
      Obs.Trace.write path;
      Printf.printf "[wrote %s (%d trace events)]\n" path (Obs.Trace.length ()))
    trace

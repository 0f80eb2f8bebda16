(* Bechamel kernel benchmarks and the profile regression gate.

   Usage:
     main.exe kernels [--json PATH]
         the Bechamel micro-benchmarks; --json also writes per-kernel
         ns/run, LP iteration/refactorization counters and the paper-scale
         throughput probe to PATH (a machine-readable perf baseline, e.g.
         BENCH_<rev>.json).
     main.exe obs-diff OLD NEW [--threshold PCT] [--time-threshold PCT]
              [--json PATH]
         compare two --profile artifacts; exits 1 when a gated metric
         moved past the threshold (the CI perf-regression gate, run
         against bench/BASELINE.json) and 2 when a profile is unreadable
         or malformed.

   The paper's tables and figures are regenerated by
   bin/experiments_main.exe (--only E1,...,E21). *)

open Bechamel
open Toolkit

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
    [ Test.make ~name:"E1 blocks (one filter: 2 LPs + 24 raced schedules)"
        (Staged.stage (fun () ->
             ignore (Experiments.Harness.all_blocks tiny_cfg)));
      Test.make ~name:"bvn_decomposition_32x32"
        (Staged.stage (fun () -> ignore (Core.Bvn.schedule bvn_input)));
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
  let r = Core.Engine.run inst (Core.Baselines.greedy_policy order) in
  (ports, coflows, r.Core.Engine.slots, r.Core.Engine.decisions,
   r.Core.Engine.seconds)

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

let run_kernels json =
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
    (Experiments.Report.table
       ~title:"Kernel micro-benchmarks (Bechamel, monotonic clock)"
       ~header:[ "kernel"; "time / run"; "r^2" ]
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
  Option.iter (fun path -> write_json path rows) json;
  0

(* ---------- profile regression gate ---------- *)

let obs_diff old_path new_path threshold time_threshold json =
  match
    let old_profile = Obs.Profile_diff.load_file old_path in
    (old_profile, Obs.Profile_diff.load_file new_path)
  with
  | exception (Sys_error msg | Failure msg) ->
    Printf.eprintf "obs-diff: %s\n" msg;
    2
  | old_profile, new_profile -> (
    let report =
      Obs.Profile_diff.diff ~threshold ?time_threshold ~old_profile
        ~new_profile ()
    in
    print_string (Obs.Profile_diff.render report);
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc (Obs.Profile_diff.to_json report);
        close_out oc;
        Printf.printf "(wrote %s)\n" path)
      json;
    match Obs.Profile_diff.regressions report with
    | [] ->
      Printf.printf "obs-diff: OK (no regression past %.1f%%)\n" threshold;
      0
    | regs ->
      Printf.printf "obs-diff: FAIL — %d metric(s) regressed past %.1f%%\n"
        (List.length regs) threshold;
      1)

(* ---------- command line ---------- *)

open Cmdliner

let json_arg ~doc =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let kernels_cmd =
  Cmd.v
    (Cmd.info "kernels" ~doc:"Run the Bechamel kernel micro-benchmarks")
    Term.(
      const run_kernels
      $ json_arg
          ~doc:
            "Also write per-kernel ns/run, LP pivot counters and the \
             paper-scale throughput probe to PATH as JSON")

let percent =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "%S is not a non-negative number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let obs_diff_cmd =
  let profile n docv =
    Arg.(required & pos n (some string) None & info [] ~docv)
  in
  let threshold =
    Arg.(
      value & opt percent 10.0
      & info [ "threshold" ] ~docv:"PCT"
          ~doc:"Fail when a deterministic metric moved by more than PCT")
  in
  let time_threshold =
    Arg.(
      value
      & opt (some percent) None
      & info [ "time-threshold" ] ~docv:"PCT"
          ~doc:
            "Also gate wall-time metrics at PCT; without it they are \
             informational")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"a gated metric regressed past the threshold"
    :: Cmd.Exit.info 2 ~doc:"a profile is unreadable or malformed"
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "obs-diff" ~exits
       ~doc:"Compare two profile artifacts and gate on regressions")
    Term.(
      const obs_diff $ profile 0 "OLD" $ profile 1 "NEW" $ threshold
      $ time_threshold
      $ json_arg ~doc:"Also write the machine-readable verdict to PATH")

let () =
  let doc = "Kernel micro-benchmarks and the profile regression gate" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "coflow-bench" ~doc) [ kernels_cmd; obs_diff_cmd ]))

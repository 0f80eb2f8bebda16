(* Run one scheduling algorithm on a coflow trace file and report per-coflow
   completion times and the total weighted completion time.

   Usage: coflow_sim TRACE [--order ha|hrho|hsize|hlp] [--case a|b|c|d]
                     [--baseline fifo|rr|mwm|varys] [--verbose]
                     [--record FILE] [--audit] *)

open Cmdliner
open Workload
open Core

let orders =
  [ ("ha", `Ha); ("hrho", `Hrho); ("hsize", `Hsize); ("hlp", `Hlp) ]

let cases =
  [ ("a", Scheduler.Base);
    ("b", Scheduler.Backfill);
    ("c", Scheduler.Group);
    ("d", Scheduler.Group_backfill);
  ]

let baselines =
  [ ("fifo", `Fifo); ("rr", `Rr); ("mwm", `Mwm); ("varys", `Varys) ]

let name_of alts v = fst (List.find (fun (_, v') -> v' = v) alts)

(* A malformed trace is reported by name, not as an uncaught exception. *)
let load_trace path =
  try Ok (Trace.load path)
  with Failure msg | Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)

let ( let* ) = Result.bind

(* A run that exhausts the simulator's slot budget (a trace whose
   schedule outlasts it) is reported by name too. *)
let budget_message = "Simulator.run: slot budget exhausted"

let guard_budget trace_path f =
  try f ()
  with Failure msg when msg = budget_message ->
    Error (Printf.sprintf "%s: %s" trace_path msg)

(* An unwritable FILE is reported by name too. *)
let save_recording path recording =
  try Ok (Switchsim.Recorder.save path recording)
  with Sys_error msg -> Error (Printf.sprintf "%s: %s" path msg)

let run_sim trace_path order_kind case baseline verbose record_path audit =
  let* inst = load_trace trace_path in
  Format.printf "loaded %a@." Instance.pp_summary inst;
  let audit_order = ref None in
  let* result, label =
    guard_budget trace_path @@ fun () ->
    match baseline with
    | Some `Fifo -> Ok (Baselines.fifo inst, "FIFO greedy")
    | Some `Rr -> Ok (Baselines.round_robin inst, "round robin")
    | Some `Mwm -> Ok (Baselines.max_weight inst, "MaxWeight matching")
    | Some `Varys -> Ok (Baselines.sebf_madd inst, "SEBF + MADD (Varys-style)")
    | None ->
      let order =
        match order_kind with
        | `Ha -> Ordering.arrival inst
        | `Hrho -> Ordering.by_load_over_weight inst
        | `Hsize -> Ordering.by_total_size inst
        | `Hlp ->
          Format.printf "solving the interval-indexed LP relaxation...@.";
          Ordering.by_lp (Lp_relax.solve_interval inst)
      in
      audit_order := Some order;
      (* an instance BvN cannot augment is refused by name, before any
         slot is scheduled *)
      let* policy =
        try Ok (Scheduler.case_policy ~case inst order)
        with Invalid_argument msg ->
          Error (Printf.sprintf "%s: %s" trace_path msg)
      in
      let label =
        Printf.sprintf "%s / case (%s)" (name_of orders order_kind)
          (name_of cases case)
      in
      (match record_path with
      | None -> Ok (Engine.run inst policy, label)
      | Some path ->
        (* keep the run's transcript so the exact schedule can be audited
           offline *)
        let log = Switchsim.Recorder.log ~ports:(Instance.ports inst) in
        let result = Engine.run inst (Policy.recorded log policy) in
        let* () = save_recording path (Switchsim.Recorder.contents log) in
        Format.printf "recorded schedule written to %s (replayable)@." path;
        Ok (result, label))
  in
  Format.printf "algorithm: %s@." label;
  Format.printf "total weighted completion time: %.2f@."
    result.Scheduler.twct;
  Format.printf "makespan: %d slots, utilization %.1f%%, %d matchings@."
    result.Scheduler.slots
    (100.0 *. result.Scheduler.utilization)
    result.Scheduler.matchings;
  if audit then begin
    (match !audit_order with
    | None ->
      Format.printf
        "audit: Lemma 2 / Proposition 1 need an ordering-based run (not a \
         baseline)@."
    | Some order ->
      (match Verify.lemma2_prefix_bound inst order result.Scheduler.completion with
      | Ok () -> Format.printf "audit: Lemma 2 prefix bounds hold@."
      | Error m -> Format.printf "audit: %s@." m);
      (match
         Verify.proposition1_grouped_bound inst
           (Grouping.deterministic inst order)
           result.Scheduler.completion
       with
      | Ok () -> Format.printf "audit: group-level Proposition 1 holds@."
      | Error m -> Format.printf "audit: %s@." m))
  end;
  if verbose then begin
    Format.printf "@.per-coflow completion times:@.";
    Array.iteri
      (fun k c ->
        let cf = Instance.coflow inst k in
        Format.printf "  coflow %3d (w=%.0f, release=%d): C=%d@."
          cf.Instance.id cf.Instance.weight cf.Instance.release c)
      result.Scheduler.completion
  end;
  Ok 0

let trace_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE")

let order_arg =
  Arg.(
    value & opt (enum orders) `Hlp
    & info [ "order" ] ~docv:"ORDER"
        ~doc:(Printf.sprintf "Ordering, %s" (doc_alts_enum orders)))

let case_arg =
  Arg.(
    value
    & opt (enum cases) Scheduler.Group_backfill
    & info [ "case" ] ~docv:"CASE"
        ~doc:(Printf.sprintf "Scheduling case, %s" (doc_alts_enum cases)))

let baseline_arg =
  Arg.(
    value
    & opt (some (enum baselines)) None
    & info [ "baseline" ] ~docv:"NAME"
        ~doc:
          (Printf.sprintf "Run a baseline instead of an ordering, %s"
             (doc_alts_enum baselines)))

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ])

let record_arg =
  Arg.(value & opt (some string) None & info [ "record" ] ~docv:"FILE")

let audit_arg = Arg.(value & flag & info [ "audit" ])

let cmd =
  let doc = "Schedule a coflow trace through the switch simulator" in
  Cmd.v
    (Cmd.info "coflow-sim" ~doc)
    Term.(
      const run_sim $ trace_arg $ order_arg $ case_arg $ baseline_arg
      $ verbose_arg $ record_arg $ audit_arg)

let () = exit (Cmd.eval_result' cmd)

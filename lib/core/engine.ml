open Workload
open Switchsim

type result = {
  completion : int array;
  twct : float;
  slots : int;
  seconds : float;
  utilization : float;
  matchings : int;
  decisions : int;
}

let c_runs = Obs.Counter.make "engine.runs"

(* Kept under the historical name so profile artifacts stay comparable
   across the refactor that moved result assembly out of Scheduler. *)
let g_utilization = Obs.Counter.Gauge.make "sched.utilization"

(* Wall-clock throughput of the most recent run.  The [_per_sec] suffix
   marks them informational for the obs-diff gate, like every other
   wall-time metric — the deterministic side of the batching win is gated
   through [sim.batch_steps] / [sim.batched_slots] instead. *)
let g_slots_per_sec = Obs.Counter.Gauge.make "engine.slots_per_sec"

let g_coflows_per_sec = Obs.Counter.Gauge.make "engine.coflows_per_sec"

let measure inst sim ~matchings ~decisions ~seconds =
  let n = Instance.num_coflows inst in
  let releases = Instance.releases inst in
  let completion =
    (* A coflow completes no earlier than it arrives.  The simulator only
       knows the slot it stopped tracking a coflow, which for an
       empty-demand coflow is 0 regardless of its release date — reporting
       that raw value understates C_k and breaks comparability with every
       release-aware lower bound (LP-EXP charges such a coflow w * r).
       Non-empty coflows always finish strictly after their release, so
       the clamp only corrects the degenerate case. *)
    Array.init n (fun k ->
        max (Simulator.completion_time_exn sim k) releases.(k))
  in
  { completion;
    twct =
      Metrics.total_weighted_completion ~weights:(Instance.weights inst)
        completion;
    slots = Simulator.now sim;
    seconds;
    utilization = Simulator.utilization sim;
    matchings;
    decisions;
  }

let run ?max_slots ?sim inst (p : Policy.t) =
  Obs.Span.with_ "engine.run" @@ fun () ->
  Obs.Counter.incr c_runs;
  let sim =
    match sim with
    | Some s -> s
    | None ->
      Simulator.create ~ports:(Instance.ports inst) (Instance.demands inst)
  in
  let st = p.Policy.prepare sim in
  let policy, committed =
    match st.Policy.next_batch with
    | Some next_batch -> (next_batch, st.Policy.committed)
    | None -> ((fun sim ~max_n:_ -> (st.Policy.next_slot sim, 1)), ignore)
  in
  let t0 = Obs.Clock.now_ns () in
  let decisions = Simulator.run ?max_slots sim ~policy ~committed in
  let seconds =
    float_of_int (Obs.Clock.elapsed_ns ~since:t0) /. 1e9
  in
  let r =
    measure inst sim ~matchings:(st.Policy.matchings ()) ~decisions ~seconds
  in
  Obs.Counter.Gauge.set g_utilization r.utilization;
  if seconds > 0.0 then begin
    Obs.Counter.Gauge.set g_slots_per_sec (float_of_int r.slots /. seconds);
    Obs.Counter.Gauge.set g_coflows_per_sec
      (float_of_int (Array.length r.completion) /. seconds)
  end;
  r

(* ---- parallel job execution across OCaml 5 domains ---- *)

let run_many ~jobs thunks =
  if jobs < 1 then invalid_arg "Engine.run_many: jobs must be >= 1";
  let tasks = Array.of_list thunks in
  let n = Array.length tasks in
  let results : ('a, exn) Stdlib.result option array = Array.make n None in
  let events = Array.make n [] in
  let traces = Array.make n [] in
  (* Jobs are claimed from an atomic cursor (work stealing), but every
     side effect that could expose scheduling order is captured per job:
     slot events and trace fragments go to per-domain buffers re-injected
     below in job-index order, spans/counters/histograms aggregate
     commutatively, and the return values land at the job's own index.
     The same capture discipline runs at [jobs = 1], so output is
     byte-identical at any job count. *)
  let next = Atomic.make 0 in
  let run_task i =
    let outcome =
      try
        let (v, evs), trs =
          Obs.Trace.capture (fun () ->
              Obs.Events.capture (fun () -> tasks.(i) ()))
        in
        events.(i) <- evs;
        traces.(i) <- trs;
        Ok v
      with e -> Error e
    in
    results.(i) <- Some outcome
  in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_task i;
        loop ()
      end
    in
    loop ()
  in
  let workers = min jobs n in
  if workers <= 1 then worker ()
  else begin
    (* worker domains start with an empty span stack: seed them with the
       caller's open span so paths nest exactly as the sequential run *)
    let parent = Obs.Span.fork_context () in
    let doms =
      Array.init (workers - 1) (fun _ ->
          Domain.spawn (fun () -> Obs.Span.run_with_context parent worker))
    in
    worker ();
    Array.iter Domain.join doms
  end;
  (* deterministic merge: job-index order, never completion order *)
  Array.iter Obs.Events.append events;
  Array.iter Obs.Trace.append traces;
  Array.to_list results
  |> List.map (function
       | Some (Ok v) -> v
       | Some (Error e) -> raise e
       | None -> assert false)

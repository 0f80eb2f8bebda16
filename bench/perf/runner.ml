(* One workload run: the repetition loop, the output checks that span
   repetitions (goldens, determinism, traced = untraced) and the
   aggregation into the metrics BENCHMARK.json declares.

   A run draws [instances] distinct instances from the seed and schedules
   each once, then cycles through them again until [seconds] have passed;
   a repeated instance must reproduce its first schedule exactly.
   Deterministic metrics therefore cover the same instances on every run
   of a seed, whatever the host's speed; timing metrics take the median
   over an instance's repetitions and the mean over instances. *)

open Workloads

type rep = {
  idx : int;  (** instance index within the seed *)
  setup_s : float;
  outcome : outcome;
  layers : (string * float) list;  (** traced runs only *)
  peak_heap_mb : float;  (** set by [isolated] *)
}

(* Instance 0 at the default seed, pinned: schedule length, loop steps and
   the completion-vector digest (the soak's fingerprint). *)
let goldens =
  [ ("paper_greedy", (7774, 4820, "8ed19f8e3a042d10dea40a610c5d30b6"));
    ("paper_grouped", (10187, 5200, "b4325ecc4318a8ccf08c86289e95a6d5"));
    ("many_coflows", (16072, 15078, "8cca0ff57202e3e9e90d1a061ff46a96"));
    ("service_soak", (962799, 19624, "7cbc4193c44210de"));
  ]

let overhead_pct ~bare ~leg = 100.0 *. ((leg.wall_s /. bare.wall_s) -. 1.0)

let run_rep spec ~seed idx ~traced =
  match spec.kind with
  | Offline o ->
    let p = prepare o ~seed idx in
    let outcome, create_s = run_offline p in
    let layers =
      if not traced then []
      else begin
        Gc.compact ();
        let t, layers = run_offline_traced p in
        check (same_schedule t outcome) "traced schedule differs from the untraced one";
        ("obs.tracing_overhead_pct", overhead_pct ~bare:outcome ~leg:t) :: layers
      end
    in
    { idx;
      setup_s = p.generate_s +. p.order_s +. p.group_s +. create_s;
      outcome;
      layers;
      peak_heap_mb = 0.0;
    }
  | Soak { coflows } ->
    let sp = prepare_soak ~coflows ~seed idx in
    let outcome = run_soak sp in
    let layers =
      if not traced then []
      else begin
        Gc.compact ();
        let t, layers = run_soak_traced sp in
        check (same_schedule t outcome) "traced soak fingerprint differs from the bare run";
        Gc.compact ();
        let tel = run_soak_telemetry sp in
        check (same_schedule tel outcome) "soak fingerprint differs with telemetry on";
        layers
        @ [ ("obs.tracing_overhead_pct", overhead_pct ~bare:outcome ~leg:t);
            ("obs.telemetry_overhead_pct", overhead_pct ~bare:outcome ~leg:tel);
          ]
      end
    in
    { idx; setup_s = sp.s_generate_s +. sp.s_prepare_s; outcome; layers; peak_heap_mb = 0.0 }

(* The repetitions of each instance, in run order; instance [i] at [i]. *)
let per_instance reps =
  let k = 1 + List.fold_left (fun m r -> max m r.idx) 0 reps in
  Array.init k (fun i -> List.filter (fun r -> r.idx = i) reps)

(* Median over each instance's repetitions, then the mean over instances:
   every instance weighs the same however often the clock let it run. *)
let by_instance reps f =
  Sample.mean
    (Array.map (fun mine -> Sample.median (Array.of_list (List.map f mine))) (per_instance reps))

(* Work over time, pooled: the instances' total count over the sum of
   their median wall times. *)
let per_sec reps count =
  let groups = per_instance reps in
  let work = Array.fold_left (fun acc mine -> acc + count (List.hd mine).outcome) 0 groups in
  let wall =
    Array.fold_left
      (fun acc mine ->
        acc +. Sample.median (Array.of_list (List.map (fun r -> r.outcome.wall_s) mine)))
      0.0 groups
  in
  float_of_int work /. wall

let tail p r =
  let n = Array.length r.outcome.step_us in
  check (Sample.supported p n) "p%g of %d loop steps has fewer than ten samples beyond it"
    (100.0 *. p) n;
  Sample.percentile p r.outcome.step_us

(* The major-heap high-water mark of each instance's first run, mean over
   instances; later repetitions fork from a parent holding more results. *)
let peak_heap_mb reps =
  Sample.mean (Array.map (fun mine -> (List.hd mine).peak_heap_mb) (per_instance reps))

let end_to_end_values reps =
  [ ("setup_s", Sample.median (Array.of_list (List.map (fun r -> r.setup_s) reps)));
    ("slots_per_sec", per_sec reps (fun o -> o.slots));
    ("coflows_per_sec", per_sec reps (fun o -> o.completed));
    ("step_us_p50", by_instance reps (tail 0.5));
    ("step_us_p99", by_instance reps (tail 0.99));
    ("twct_ratio", by_instance reps (fun r -> r.outcome.twct /. r.outcome.bound));
    ("peak_heap_mb", peak_heap_mb reps);
  ]

let per_layer_values reps ~host_ref_ms =
  List.map
    (fun (name, _) ->
      if name = "host.ref_ms" then (name, host_ref_ms)
      else
        (* a layer the workload never enters reports 0 *)
        (name, by_instance reps (fun r -> Option.value ~default:0.0 (List.assoc_opt name r.layers))))
    per_layer

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* One repetition in a forked child, so that every repetition starts from
   the same heap and the child's high-water mark is the repetition's own.
   The parent waits for the child before it goes on. *)
let isolated f : (rep, string) result =
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let v =
      match f () with
      | rep -> Ok { rep with peak_heap_mb = top_heap_mb () }
      | exception Check msg -> Error msg
      | exception e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc (v : (rep, string) result) [];
    close_out oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v =
      try (Marshal.from_channel ic : (rep, string) result)
      with End_of_file -> Error "the repetition's process died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    v

type report = {
  result : Bench_json.result;
  host_ref_ms : float;
  failure : string option;  (** the first failed check *)
  first : outcome option;  (** instance 0's schedule, as the goldens pin it *)
}

let run spec ~seed ~seconds ~traced =
  let host_ref_ms = host_ref_ms () in
  let t0 = now_ns () in
  let k = spec.instances in
  let reps = ref [] and attempted = ref 0 and failure = ref None in
  let first = Hashtbl.create k in
  (try
     while !attempted < k || Obs.Clock.elapsed_s ~since:t0 < float_of_int seconds do
       let idx = !attempted mod k in
       incr attempted;
       let rep =
         match isolated (fun () -> run_rep spec ~seed idx ~traced) with
         | Ok rep -> rep
         | Error msg -> raise (Check msg)
       in
       let o = rep.outcome in
       (match Hashtbl.find_opt first idx with
       | Some o0 -> check (same_schedule o0 o) "instance %d scheduled differently on repetition" idx
       | None -> Hashtbl.add first idx o);
       (match List.assoc_opt spec.name goldens with
       | Some (slots, steps, digest) when seed = default_seed && idx = 0 ->
         check
           (o.slots = slots && o.steps = steps && o.digest = digest)
           "golden: got slots %d steps %d digest %s, pinned %d %d %s" o.slots o.steps
           o.digest slots steps digest
       | _ -> ());
       reps := rep :: !reps
     done
   with
  | Check msg -> failure := Some msg
  | e -> failure := Some (Printexc.to_string e));
  let reps = List.rev !reps in
  let metrics =
    if !failure <> None then []
    else
      try
        let values, units =
          if traced then (per_layer_values reps ~host_ref_ms, per_layer)
          else (end_to_end_values reps, end_to_end)
        in
        List.map
          (fun (name, value) -> { Bench_json.name; unit_ = List.assoc name units; value })
          values
      with Check msg ->
        failure := Some msg;
        []
  in
  { result =
      { Bench_json.correct = !failure = None;
        attempted = !attempted;
        failed = (if !failure = None then 0 else 1);
        metrics;
      };
    host_ref_ms;
    failure = !failure;
    first = Hashtbl.find_opt first 0;
  }

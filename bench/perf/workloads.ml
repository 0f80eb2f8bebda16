(* The four fixed workloads: inputs drawn from the seed, one run of each
   instance timed from outside the library, output checks, and the
   end-to-end and per-layer metrics. *)

open Workload
open Core
open Switchsim

let default_seed = 20150613

type offline = {
  ports : int;
  coflows : int;
  params : Fb_like.params option;  (** [None]: the calibrated defaults *)
  mean_gap : int option;  (** [None]: every coflow released at slot 0 *)
  grouped : bool;
      (** H_rho case (d) through the BvN scheduler instead of greedy H_rho *)
}

type kind = Offline of offline | Soak of { coflows : int }

type spec = { name : string; kind : kind; instances : int }

(* Sizes.  The full E18 instance (150 ports x 526 coflows) takes 17 s
   greedy and ~50 s grouped on a 2-core x86 host, and one instance says
   little: with the calibrated heavy-tailed generator, throughput moves by
   15-30% from one instance to the next, and at 150 ports even twenty
   instances leave coflows/s about 9% apart from seed to seed.  So a run
   schedules many small instances of the same generator instead, as many
   as fit in about twenty seconds: 64 ports and 60 coflows for both paper
   workloads (the same instances), ten times that coflow count with short
   flows and staggered releases for many_coflows, and the service's
   default fault soak. *)
let paper = { ports = 64; coflows = 60; params = None; mean_gap = None; grouped = false }

let many_coflows_count = 10 * paper.coflows

let all =
  [ { name = "paper_greedy"; kind = Offline paper; instances = 60 };
    { name = "paper_grouped"; kind = Offline { paper with grouped = true }; instances = 60 };
    { name = "many_coflows";
      kind =
        Offline
          { ports = 64;
            coflows = many_coflows_count;
            params =
              Some
                { (Fb_like.default_params ~ports:64 ~coflows:many_coflows_count) with
                  long_mean = 2;
                  long_cap = 8;
                };
            mean_gap = Some 12;
            grouped = false;
          };
      instances = 18;
    };
    { name = "service_soak"; kind = Soak { coflows = 25_000 }; instances = 8 };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* ---- metric tables: the names, units and order BENCHMARK.json lists ---- *)

let end_to_end =
  [ ("setup_s", "s");
    ("slots_per_sec", "slots/s");
    ("coflows_per_sec", "coflows/s");
    ("step_us_p50", "us");
    ("step_us_p99", "us");
    ("twct_ratio", "ratio");
    ("peak_heap_mb", "MiB");
  ]

let per_layer =
  [ ("host.ref_ms", "ms");
    ("setup.generate_s", "s");
    ("setup.prepare_s", "s");
    ("setup.order_share", "%");
    ("setup.group_share", "%");
    ("setup.create_share", "%");
    ("grouping.groups", "count");
    ("loop.decide_s", "s");
    ("loop.commit_s", "s");
    ("loop.coverage_pct", "%");
    ("loop.decide_calls", "count");
    ("loop.decide_us_p50", "us");
    ("loop.decide_us_p99", "us");
    ("loop.decide_alloc_words", "words");
    ("loop.commit_alloc_words", "words");
    ("loop.slots_per_step", "slots");
    ("loop.units_moved", "units");
    ("loop.utilization", "ratio");
    ("sched.matchings_built", "count");
    ("sched.matchings_reused", "count");
    ("sched.backfilled_units", "units");
    ("bvn.calls", "count");
    ("bvn.matchings", "count");
    ("bvn.build_size_p99", "entries");
    ("bvn.share", "%");
    ("lp.pivots", "count");
    ("lp.refactors", "count");
    ("lp.share", "%");
    ("service.epochs", "count");
    ("service.idle_jumps", "count");
    ("service.degradations", "count");
    ("service.lp_failures", "count");
    ("service.lp_tier_share", "%");
    ("service.rejected_share", "%");
    ("service.deadline_miss_share", "%");
    ("service.wait_p99_slots", "slots");
    ("faults.audited_slots", "count");
    ("faults.plan_events", "count");
    ("gc.alloc_mwords", "Mwords");
    ("gc.minor_collections", "count");
    ("gc.major_collections", "count");
    ("obs.tracing_overhead_pct", "%");
    ("obs.telemetry_overhead_pct", "%");
  ]

(* ---- inputs ---- *)

(* Instance 0 of a seed is drawn exactly as E18 draws its instance:
   demands from [|seed; 0x5CA1E|], random-permutation weights from
   [|seed; 0x5CA1E; 1|]; instance [i] shifts the second word by [i]. *)
let instance o ~seed i =
  let st = Random.State.make [| seed; 0x5CA1E + i |] in
  let inst =
    match o.mean_gap with
    | None -> Fb_like.generate ?params:o.params ~ports:o.ports ~coflows:o.coflows st
    | Some mean_gap ->
      Fb_like.generate_with_arrivals ?params:o.params ~mean_gap ~ports:o.ports
        ~coflows:o.coflows st
  in
  let wst = Random.State.make [| seed; 0x5CA1E + i; 1 |] in
  Instance.with_weights inst (Weights.random_permutation wst o.coflows)

let soak_seed ~seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

(* The soak's Poisson arrival stream drawn up front, as a replayable
   instance: the service then sees exactly the coflows the generative
   stream would have produced, and drawing them counts as set-up. *)
let draw_stream ~seed ~coflows =
  let cfg = Service.Soak.default_config in
  let ports = Service.Soak.ports cfg in
  let src =
    Service.Arrivals.create ?params:cfg.Service.Soak.params
      ~random_weights:cfg.Service.Soak.random_weights ~ports ~seed
      cfg.Service.Soak.process
  in
  Array.to_list
    (Array.init coflows (fun _ ->
         let c = Option.get (Service.Arrivals.next src) in
         { Instance.id = c.Service.Arrivals.id;
           release = c.Service.Arrivals.arrival;
           demand = c.Service.Arrivals.demand;
           weight = c.Service.Arrivals.weight;
         }))

(* ---- timing helpers ---- *)

let now_ns = Obs.Clock.now_ns

let secs ns = float_of_int ns /. 1e9

(* Growable int buffer for per-step clock readings: pushing allocates only
   when the buffer doubles. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push b v =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- v;
    b.n <- b.n + 1

  (* microseconds between consecutive readings *)
  let gaps_us b = Array.init (max 0 (b.n - 1)) (fun j -> float_of_int (b.a.(j + 1) - b.a.(j)) /. 1e3)
end

let pct p xs = if Array.length xs = 0 then 0.0 else Sample.percentile p xs

(* Fixed pure-OCaml spin, so drift in the host's speed shows next to the
   timings it would move. *)
let host_ref_ms () =
  let once () =
    let t0 = now_ns () in
    let acc = ref 0 in
    for i = 1 to 10_000_000 do
      acc := ((!acc * 31) + i) land 0xFFFFFF
    done;
    ignore (Sys.opaque_identity !acc);
    float_of_int (Obs.Clock.elapsed_ns ~since:t0) /. 1e6
  in
  Sample.median (Array.init 5 (fun _ -> once ()))

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

let counter name =
  let c = Obs.Counter.make name in
  fun () -> Obs.Counter.value c

let c_matchings_built = counter "sched.matchings_built"

let c_matchings_reused = counter "sched.matchings_reused"

let c_backfilled = counter "sched.backfilled_units"

let c_bvn_matchings = counter "bvn.matchings"

let c_pivots = counter "lp.pivots"

let c_refactors = counter "lp.refactors"

(* Calls and total nanoseconds of every span path ending in [name]. *)
let span_totals name =
  List.fold_left
    (fun (n, ns) (path, s) ->
      if path = name || String.ends_with ~suffix:("/" ^ name) path then
        (n + s.Obs.Span.count, ns + s.Obs.Span.total_ns)
      else (n, ns))
    (0, 0) (Obs.Span.dump ())

(* ---- one run of one instance ---- *)

type outcome = {
  slots : int;
  steps : int;  (** decisions offline, epochs in the service *)
  completed : int;
  twct : float;
  bound : float;  (** sum of w (r + rho): TWCT can never be below it *)
  digest : string;  (** completion vector, or the soak's fingerprint *)
  wall_s : float;
  step_us : float array;  (** wall time of each loop step *)
}

let same_schedule a b =
  a.slots = b.slots && a.steps = b.steps && a.twct = b.twct && a.digest = b.digest

exception Check of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check msg)) fmt

(* Offline set-up: generate, order (and group), build the simulator. *)
type prepared = {
  inst : Instance.t;
  order : Ordering.t;
  groups : Grouping.t option;
  generate_s : float;
  order_s : float;
  group_s : float;
}

let prepare o ~seed i =
  let t0 = now_ns () in
  let inst = instance o ~seed i in
  let t1 = now_ns () in
  let order = Ordering.by_load_over_weight inst in
  let t2 = now_ns () in
  let groups, group_s =
    if o.grouped then
      let g = Grouping.deterministic inst order in
      (Some g, Obs.Clock.elapsed_s ~since:t2)
    else (None, 0.0)
  in
  { inst; order; groups; generate_s = secs (t1 - t0); order_s = secs (t2 - t1); group_s }

let create_sim p =
  let t0 = now_ns () in
  let sim = Simulator.create ~ports:(Instance.ports p.inst) (Instance.demands p.inst) in
  (sim, Obs.Clock.elapsed_s ~since:t0)

let policy p =
  match p.groups with
  | Some g -> Scheduler.as_policy ~backfill:true ~describe:"grouped H_rho (d)" g
  | None -> Baselines.greedy_policy p.order

(* The prepared stepper's batched decision, bracketed by [enter] and
   [leave]: the only way the benchmark reaches into the loop. *)
let bracket (pol : Policy.t) ~enter ~leave =
  Policy.make ~describe:pol.Policy.describe (fun sim ->
      let st = pol.Policy.prepare sim in
      match st.Policy.next_batch with
      | None -> invalid_arg "bracket: the policy has no batched decision"
      | Some decide ->
        { st with
          Policy.next_batch =
            Some
              (fun sim ~max_n ->
                enter ();
                let r = decide sim ~max_n in
                leave ();
                r);
        })

let lower_bound inst =
  let w = Instance.weights inst in
  let acc = ref 0.0 in
  Array.iteri
    (fun k (c : Instance.coflow) ->
      acc := !acc +. (w.(k) *. float_of_int (c.release + Matrix.Mat.load c.demand)))
    (Instance.coflows inst);
  !acc

let offline_outcome p (r : Engine.result) ~steps ~wall_s ~step_us =
  let inst = p.inst in
  let n = Instance.num_coflows inst in
  let bound = lower_bound inst in
  check (Array.length r.Engine.completion = n) "completion vector has %d of %d coflows"
    (Array.length r.Engine.completion) n;
  (match Verify.lemma2_prefix_bound inst p.order r.Engine.completion with
  | Ok () -> ()
  | Error e -> raise (Check ("Lemma 2: " ^ e)));
  (match p.groups with
  | Some g -> (
    match Verify.proposition1_grouped_bound inst g r.Engine.completion with
    | Ok () -> ()
    | Error e -> raise (Check ("Proposition 1: " ^ e)))
  | None -> ());
  check (r.Engine.twct >= bound) "TWCT %.17g below the lower bound %.17g" r.Engine.twct bound;
  { slots = r.Engine.slots;
    steps;
    completed = n;
    twct = r.Engine.twct;
    bound;
    digest =
      Digest.to_hex
        (Digest.string
           (String.concat "," (Array.to_list (Array.map string_of_int r.Engine.completion))));
    wall_s;
    step_us;
  }

(* Untraced: one clock read per decision, nothing else. *)
let run_offline p =
  let sim, create_s = create_sim p in
  let stamps = Ibuf.create () in
  let pol = bracket (policy p) ~enter:(fun () -> Ibuf.push stamps (now_ns ())) ~leave:ignore in
  let t0 = now_ns () in
  let r = Engine.run ~sim p.inst pol in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  check (Simulator.all_complete sim) "simulation ended with unfinished coflows";
  (offline_outcome p r ~steps:stamps.Ibuf.n ~wall_s ~step_us:(Ibuf.gaps_us stamps), create_s)

(* Traced: decide timed and its allocation counted per call, commit timed
   from each decision's return to the next one's call, histograms on, span
   and counter deltas read after the run.  What neither covers is the
   policy's prepare and the last commit with the engine's result
   assembly. *)
let run_offline_traced p =
  let sim, create_s = create_sim p in
  let decide_ns = Ibuf.create () in
  let entered = ref 0 and left = ref 0 in
  let commit_ns = ref 0 in
  let decide_words = ref 0.0 and w_enter = ref 0.0 in
  let enter () =
    let t = now_ns () in
    if !left > 0 then commit_ns := !commit_ns + (t - !left);
    entered := t;
    w_enter := Gc.minor_words ()
  in
  let leave () =
    decide_words := !decide_words +. (Gc.minor_words () -. !w_enter);
    let t = now_ns () in
    Ibuf.push decide_ns (t - !entered);
    left := t
  in
  let pol = bracket (policy p) ~enter ~leave in
  let built0 = c_matchings_built () and reused0 = c_matchings_reused () in
  let backfilled0 = c_backfilled () and bvn_m0 = c_bvn_matchings () in
  let bvn_calls0, bvn_ns0 = span_totals "bvn.schedule" in
  let minor0 = Gc.minor_words () and words0 = alloc_words () in
  let minc0, majc0 = gc_counts () in
  Obs.Histogram.reset_all ();
  Obs.Histogram.set_enabled true;
  let t0 = now_ns () in
  let r =
    Fun.protect
      ~finally:(fun () -> Obs.Histogram.set_enabled false)
      (fun () -> Engine.run ~sim p.inst pol)
  in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  let minor = Gc.minor_words () -. minor0 and words = alloc_words () -. words0 in
  let minc, majc = gc_counts () in
  let bvn_calls, bvn_ns = span_totals "bvn.schedule" in
  let calls = decide_ns.Ibuf.n in
  let decide_us = Array.init calls (fun j -> float_of_int decide_ns.Ibuf.a.(j) /. 1e3) in
  let decide_s = Array.fold_left ( +. ) 0.0 decide_us /. 1e6 in
  let commit_s = secs !commit_ns in
  let outcome = offline_outcome p r ~steps:calls ~wall_s ~step_us:[||] in
  let fc = float_of_int (max 1 calls) in
  let bvn_build = Obs.Histogram.make "bvn.build_size" in
  let setup_s = p.order_s +. p.group_s +. create_s in
  let layers =
    [ ("setup.generate_s", p.generate_s);
      ("setup.prepare_s", setup_s);
      ("setup.order_share", 100.0 *. p.order_s /. setup_s);
      ("setup.group_share", 100.0 *. p.group_s /. setup_s);
      ("setup.create_share", 100.0 *. create_s /. setup_s);
      ( "grouping.groups",
        match p.groups with Some g -> float_of_int (Grouping.group_count g) | None -> 0.0 );
      ("loop.decide_s", decide_s);
      ("loop.commit_s", commit_s);
      ("loop.coverage_pct", 100.0 *. (decide_s +. commit_s) /. wall_s);
      ("loop.decide_calls", float_of_int calls);
      ("loop.decide_us_p50", pct 0.5 decide_us);
      ("loop.decide_us_p99", pct 0.99 decide_us);
      ("loop.decide_alloc_words", !decide_words /. fc);
      ("loop.commit_alloc_words", (minor -. !decide_words) /. fc);
      ("loop.slots_per_step", float_of_int r.Engine.slots /. fc);
      ("loop.units_moved", float_of_int (Simulator.units_moved sim));
      ("loop.utilization", r.Engine.utilization);
      ("sched.matchings_built", float_of_int (c_matchings_built () - built0));
      ("sched.matchings_reused", float_of_int (c_matchings_reused () - reused0));
      ("sched.backfilled_units", float_of_int (c_backfilled () - backfilled0));
      ("bvn.calls", float_of_int (bvn_calls - bvn_calls0));
      ("bvn.matchings", float_of_int (c_bvn_matchings () - bvn_m0));
      ("bvn.build_size_p99", float_of_int (Obs.Histogram.percentile bvn_build 0.99));
      ("bvn.share", 100.0 *. secs (bvn_ns - bvn_ns0) /. wall_s);
      ("gc.alloc_mwords", words /. 1e6);
      ("gc.minor_collections", float_of_int (minc - minc0));
      ("gc.major_collections", float_of_int (majc - majc0));
    ]
  in
  (outcome, layers)

(* ---- the service soak ---- *)

type soak_prepared = {
  cfg : Service.Soak.config;
  s_generate_s : float;
  s_prepare_s : float;
}

let prepare_soak ~coflows ~seed i =
  let seed = soak_seed ~seed i in
  let t0 = now_ns () in
  let cs = draw_stream ~seed ~coflows in
  let t1 = now_ns () in
  let stream = Instance.make ~ports:(Service.Soak.ports Service.Soak.default_config) cs in
  let t2 = now_ns () in
  { cfg =
      { Service.Soak.default_config with
        process = Service.Arrivals.Replay stream;
        coflows;
        seed;
        plan_seed = seed;
      };
    s_generate_s = secs (t1 - t0);
    s_prepare_s = secs (t2 - t1);
  }

let soak_outcome (cfg : Service.Soak.config) (rep : Service.Soak.report) ~wall_s ~step_us =
  let s = rep.Service.Soak.stats in
  (match Service.Soak.failed rep with
  | [] -> ()
  | g :: _ ->
    raise
      (Check
         (Printf.sprintf "soak gate %s: %s" g.Service.Soak.gate
            (Option.value g.Service.Soak.failure ~default:""))));
  check (s.Service.Epoch_loop.arrived = cfg.Service.Soak.coflows)
    "soak consumed %d of %d arrivals" s.Service.Epoch_loop.arrived cfg.Service.Soak.coflows;
  check (s.Service.Epoch_loop.audited_slots = s.Service.Epoch_loop.slots)
    "audited %d of %d slots" s.Service.Epoch_loop.audited_slots s.Service.Epoch_loop.slots;
  check (s.Service.Epoch_loop.twct >= s.Service.Epoch_loop.bound_sum)
    "TWCT %.17g below the lower bound %.17g" s.Service.Epoch_loop.twct
    s.Service.Epoch_loop.bound_sum;
  { slots = s.Service.Epoch_loop.slots;
    steps = s.Service.Epoch_loop.epochs;
    completed = s.Service.Epoch_loop.completed;
    twct = s.Service.Epoch_loop.twct;
    bound = s.Service.Epoch_loop.bound_sum;
    digest = s.Service.Epoch_loop.fingerprint;
    wall_s;
    step_us;
  }

(* Untraced: one clock read per epoch, in the observer. *)
let run_soak sp =
  let stamps = Ibuf.create () in
  let t0 = now_ns () in
  let rep = Service.Soak.run ~observer:(fun _ -> Ibuf.push stamps (now_ns ())) sp.cfg in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  soak_outcome sp.cfg rep ~wall_s ~step_us:(Ibuf.gaps_us stamps)

let solve_path = "service.run/service.epoch/service.solve"

(* Traced: each epoch's re-solve read from the [service.solve] span in the
   observer, epoch and LP span totals and counter deltas after the run.
   Decide is the re-solve, commit the rest of the epoch (serving, audit,
   retirement); admission and idle jumps between epochs are not
   covered. *)
let run_soak_traced sp =
  let solves = Ibuf.create () in
  let last_count = ref 0 and last_ns = ref 0 in
  let units = ref 0 and faults = ref 0 in
  let read () =
    match Obs.Span.stats solve_path with
    | Some s -> (s.Obs.Span.count, s.Obs.Span.total_ns)
    | None -> (0, 0)
  in
  let observer (ev : Service.Epoch_loop.epoch_view) =
    let count, ns = read () in
    if count > !last_count then Ibuf.push solves (ns - !last_ns);
    last_count := count;
    last_ns := ns;
    units := !units + ev.Service.Epoch_loop.ev_units_served;
    faults := !faults + ev.Service.Epoch_loop.ev_fault_events
  in
  let c0, ns0 = read () in
  last_count := c0;
  last_ns := ns0;
  let _, epoch_ns0 = span_totals "service.epoch" in
  let _, lp_ns0 = span_totals "lp.solve" in
  let piv0 = c_pivots () and ref0 = c_refactors () in
  let words0 = alloc_words () in
  let minc0, majc0 = gc_counts () in
  let t0 = now_ns () in
  let rep = Service.Soak.run ~observer sp.cfg in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  let outcome = soak_outcome sp.cfg rep ~wall_s ~step_us:[||] in
  let words = alloc_words () -. words0 in
  let minc, majc = gc_counts () in
  let _, epoch_ns = span_totals "service.epoch" in
  let _, lp_ns = span_totals "lp.solve" in
  let c1, ns1 = read () in
  let s = rep.Service.Soak.stats in
  let decide_s = secs (ns1 - ns0) in
  let epoch_s = secs (epoch_ns - epoch_ns0) in
  let solve_us = Array.init solves.Ibuf.n (fun j -> float_of_int solves.Ibuf.a.(j) /. 1e3) in
  let arrived = float_of_int (max 1 s.Service.Epoch_loop.arrived) in
  let lp_slots =
    Option.value ~default:0 (List.assoc_opt Resilient.Lp s.Service.Epoch_loop.tier_slots)
  in
  let share a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  let layers =
    [ ("setup.generate_s", sp.s_generate_s);
      ("setup.prepare_s", sp.s_prepare_s);
      ("loop.decide_s", decide_s);
      ("loop.commit_s", epoch_s -. decide_s);
      ("loop.coverage_pct", 100.0 *. epoch_s /. wall_s);
      ("loop.decide_calls", float_of_int (c1 - c0));
      ("loop.decide_us_p50", pct 0.5 solve_us);
      ("loop.decide_us_p99", pct 0.99 solve_us);
      ("loop.slots_per_step",
       float_of_int s.Service.Epoch_loop.slots /. float_of_int (max 1 s.Service.Epoch_loop.epochs));
      ("loop.units_moved", float_of_int !units);
      ( "loop.utilization",
        float_of_int !units
        /. float_of_int
             (max 1 (Service.Soak.ports sp.cfg * s.Service.Epoch_loop.slots)) );
      ("lp.pivots", float_of_int (c_pivots () - piv0));
      ("lp.refactors", float_of_int (c_refactors () - ref0));
      ("lp.share", 100.0 *. secs (lp_ns - lp_ns0) /. wall_s);
      ("service.epochs", float_of_int s.Service.Epoch_loop.epochs);
      ("service.idle_jumps", float_of_int s.Service.Epoch_loop.idle_jumps);
      ("service.degradations", float_of_int s.Service.Epoch_loop.degradations);
      ("service.lp_failures", float_of_int s.Service.Epoch_loop.lp_failures);
      ("service.lp_tier_share", share lp_slots s.Service.Epoch_loop.slots);
      ( "service.rejected_share",
        100.0
        *. float_of_int
             (s.Service.Epoch_loop.rejected_queue + s.Service.Epoch_loop.rejected_deadline)
        /. arrived );
      ( "service.deadline_miss_share",
        100.0 *. float_of_int s.Service.Epoch_loop.deadline_misses /. arrived );
      ("service.wait_p99_slots", float_of_int s.Service.Epoch_loop.wait_p99);
      ("faults.audited_slots", float_of_int s.Service.Epoch_loop.audited_slots);
      ("faults.plan_events", float_of_int !faults);
      ("gc.alloc_mwords", words /. 1e6);
      ("gc.minor_collections", float_of_int (minc - minc0));
      ("gc.major_collections", float_of_int (majc - majc0));
    ]
  in
  (outcome, layers)

(* Telemetry leg: the live observer with histograms and the event stream
   on, against the bare run of the same stream. *)
let run_soak_telemetry sp =
  let tel = Service.Telemetry.create () in
  Obs.Histogram.set_enabled true;
  Obs.Events.set_enabled true;
  let t0 = now_ns () in
  let rep =
    Fun.protect
      ~finally:(fun () ->
        Obs.Histogram.set_enabled false;
        Obs.Events.set_enabled false;
        Obs.Events.reset ())
      (fun () -> Service.Soak.run ~observer:(Service.Telemetry.observer tel) sp.cfg)
  in
  let wall_s = Obs.Clock.elapsed_s ~since:t0 in
  Service.Telemetry.finish tel;
  soak_outcome sp.cfg rep ~wall_s ~step_us:[||]

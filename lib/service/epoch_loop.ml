open Core
open Workload
open Switchsim
open Faults

type fault_source =
  | Seeded of float
  | Scripted of (epoch:int -> coflows:int -> Fault_plan.t)

type config = {
  epoch_length : int;
  admission : Admission.config;
  lp_deadline : float option;
  lp_max_iterations : int;
  lp_retries : int;
  degrade_live_above : int;
  degrade_notch : (unit -> int) option;
  net : Net.t option;
  faults : fault_source;
  max_slots : int;
}

let default_config =
  { epoch_length = 64;
    admission = Admission.default_config;
    lp_deadline = Some 1.0;
    lp_max_iterations = 60_000;
    lp_retries = 1;
    degrade_live_above = 48;
    degrade_notch = None;
    net = None;
    faults = Seeded 0.0;
    max_slots = 10_000_000;
  }

let validate_config cfg =
  if cfg.epoch_length < 1 then
    invalid_arg "Epoch_loop: epoch_length must be >= 1";
  if cfg.lp_max_iterations < 1 then
    invalid_arg "Epoch_loop: lp_max_iterations must be >= 1";
  if cfg.lp_retries < 0 then
    invalid_arg "Epoch_loop: lp_retries must be >= 0";
  (match cfg.lp_deadline with
  | Some d when not (d > 0.0) ->
    invalid_arg "Epoch_loop: lp_deadline must be positive"
  | _ -> ());
  if cfg.degrade_live_above < 1 then
    invalid_arg "Epoch_loop: degrade_live_above must be >= 1";
  (match cfg.faults with
  | Seeded i when i < 0.0 ->
    invalid_arg "Epoch_loop: fault intensity must be >= 0"
  | _ -> ());
  if cfg.max_slots < 1 then invalid_arg "Epoch_loop: max_slots must be >= 1";
  Admission.validate cfg.admission

type stats = {
  arrived : int;
  admitted : int;
  rejected_queue : int;
  rejected_deadline : int;
  completed : int;
  twct : float;
  slots : int;
  epochs : int;
  idle_jumps : int;
  tier_slots : (Core.Resilient.tier * int) list;
  degradations : int;
  slo_degradations : int;
  reaction_degradations : int;
  lp_failures : int;
  lp_iterations : int;
  deadline_misses : int;
  max_live : int;
  max_live_epoch : int;
  bound_sum : float;
  audited_slots : int;
  audit_violation : (int * string) option;
  wait_p50 : int;
  wait_p99 : int;
  fingerprint : string;
}

type epoch_view = {
  ev_epoch : int;
  ev_start : int;
  ev_now : int;
  ev_slots : int;
  ev_tier : Core.Resilient.tier;
  ev_live_before : int;
  ev_live_after : int;
  ev_backlog : int;
  ev_units_served : int;
  ev_demand_surplus : int;
  ev_port_spread : int;
  ev_fault_events : int;
  ev_stats : stats;
  ev_decision_fingerprint : string;
}

(* ---- interned observability handles (process-wide registries) ---- *)

let c_arrivals = Obs.Counter.make "service.arrivals"

let c_admitted = Obs.Counter.make "service.admitted"

let c_rej_queue = Obs.Counter.make "service.rejected.queue_full"

let c_rej_deadline = Obs.Counter.make "service.rejected.deadline"

let c_completed = Obs.Counter.make "service.completed"

let c_epochs = Obs.Counter.make "service.epochs"

let c_slots = Obs.Counter.make "service.slots"

let c_idle_jumps = Obs.Counter.make "service.idle_jumps"

let c_degradations = Obs.Counter.make "service.degradations"

let c_degrade_slo = Obs.Counter.make "service.degrade.slo"

let c_degrade_reaction = Obs.Counter.make "service.degrade.reaction"

let c_degrade_outage = Obs.Counter.make "service.degrade.outage"

let c_degrade_lp = Obs.Counter.make "service.degrade.lp_budget"

let c_lp_failures = Obs.Counter.make "service.lp_failures"

let c_deadline_misses = Obs.Counter.make "service.deadline_misses"

let c_audited = Obs.Counter.make "service.audited_slots"

let g_live = Obs.Counter.Gauge.make "service.live_coflows"

let g_max_live = Obs.Counter.Gauge.make "service.max_live"

let h_wait = Obs.Histogram.make "service.wait_slots"

let h_flow = Obs.Histogram.make "service.flow_slots"

let h_queue = Obs.Histogram.make "service.queue_depth"

let h_epoch = Obs.Histogram.make "service.epoch_slots"

(* Private bucketed wait statistics.  Same quantization as Obs.Histogram
   (so the in-stats percentiles agree with the profile artifact) but owned
   by the run: deterministic, per-run, and alive even when global
   histogram recording is disabled. *)
module Buckets = struct
  type t = { mutable counts : int array; mutable n : int; mutable vmax : int }

  let create () = { counts = Array.make 64 0; n = 0; vmax = 0 }

  let observe b v =
    let v = max 0 v in
    let i = Obs.Histogram.bucket_of v in
    if i >= Array.length b.counts then begin
      let c = Array.make (i + 16) 0 in
      Array.blit b.counts 0 c 0 (Array.length b.counts);
      b.counts <- c
    end;
    b.counts.(i) <- b.counts.(i) + 1;
    b.n <- b.n + 1;
    if v > b.vmax then b.vmax <- v

  (* nearest-rank on bucket upper bounds, clamped to the observed max *)
  let percentile b p =
    if b.n = 0 then 0
    else begin
      let rank = max 1 (int_of_float (ceil (p *. float_of_int b.n))) in
      let acc = ref 0 and i = ref 0 and res = ref b.vmax in
      (try
         while !i < Array.length b.counts do
           acc := !acc + b.counts.(!i);
           if !acc >= rank then begin
             res := min (Obs.Histogram.bucket_hi !i) b.vmax;
             raise Exit
           end;
           incr i
         done
       with Exit -> ());
      !res
    end
end

(* a live (admitted, not yet completed) coflow *)
type entry = {
  id : int;
  admitted_at : int;
  weight : float;
  deadline : int option;
  iso_bound : int;  (* isolation bound of the FULL demand, at admission *)
  mutable demand : Matrix.Mat.t;  (* residual demand between epochs *)
  mutable first_service : int option;
  mutable straggled : bool;  (* already hit by a straggler event *)
}

(* mutable accumulator behind [stats] *)
type st = {
  mutable s_arrived : int;
  mutable s_admitted : int;
  mutable s_rej_queue : int;
  mutable s_rej_deadline : int;
  mutable s_completed : int;
  mutable s_twct : float;
  mutable s_slots : int;
  mutable s_epochs : int;
  mutable s_idle_jumps : int;
  s_tier_slots : int array;
  mutable s_degradations : int;
  mutable s_slo_degradations : int;
  mutable s_reaction_degradations : int;
  mutable s_lp_failures : int;
  mutable s_lp_iterations : int;
  mutable s_deadline_misses : int;
  mutable s_max_live : int;
  mutable s_max_live_epoch : int;
  mutable s_bound_sum : float;
  mutable s_audited : int;
  mutable s_violation : (int * string) option;
}

(* The run's [stats] as of now: what [run] returns at the end, and what
   each epoch view carries. *)
let snapshot st waits fp =
  { arrived = st.s_arrived;
    admitted = st.s_admitted;
    rejected_queue = st.s_rej_queue;
    rejected_deadline = st.s_rej_deadline;
    completed = st.s_completed;
    twct = st.s_twct;
    slots = st.s_slots;
    epochs = st.s_epochs;
    idle_jumps = st.s_idle_jumps;
    tier_slots =
      List.map
        (fun t -> (t, st.s_tier_slots.(Resilient.tier_index t)))
        Resilient.all_tiers;
    degradations = st.s_degradations;
    slo_degradations = st.s_slo_degradations;
    reaction_degradations = st.s_reaction_degradations;
    lp_failures = st.s_lp_failures;
    lp_iterations = st.s_lp_iterations;
    deadline_misses = st.s_deadline_misses;
    max_live = st.s_max_live;
    max_live_epoch = st.s_max_live_epoch;
    bound_sum = st.s_bound_sum;
    audited_slots = st.s_audited;
    audit_violation = st.s_violation;
    wait_p50 = Buckets.percentile waits 0.50;
    wait_p99 = Buckets.percentile waits 0.99;
    fingerprint = Fingerprint.hex fp;
  }

(* Plan one epoch on Resilient's chain, the LP attempt warm-started from
   [warm] (keyed by GLOBAL coflow id with ABSOLUTE times).  SLO pressure,
   a live set above the bar, lowers the primary tier to H_rho unless a
   solver outage already rules the epoch.  Alert-driven reaction: each
   notch the telemetry hook reports (a firing wait_p99 burn-rate rule)
   halves the bar for this epoch only.  Every epoch planned below H_LP is
   counted under its cause and emitted as a trace instant. *)
let plan_epoch cfg ~epoch_start ~entries ~plan ~warm ~st inst =
  let n = Array.length entries in
  let outage = Fault_plan.solver_outage plan ~slot:0 in
  let notch () =
    match cfg.degrade_notch with None -> 0 | Some f -> max 0 (f ())
  in
  let slo =
    outage = `None
    && n > max 1 (cfg.degrade_live_above asr min (notch ()) 30)
  in
  if slo then begin
    st.s_slo_degradations <- st.s_slo_degradations + 1;
    if n <= cfg.degrade_live_above then begin
      (* only the notch put us over: count the reaction separately *)
      st.s_reaction_degradations <- st.s_reaction_degradations + 1;
      Obs.Counter.incr c_degrade_reaction
    end
  end;
  let lp () =
    let on_failure () =
      st.s_lp_failures <- st.s_lp_failures + 1;
      Obs.Counter.incr c_lp_failures
    in
    let lp =
      Obs.Span.with_ "service.solve" (fun () ->
          Resilient.lp_tier ~max_iterations:cfg.lp_max_iterations
            ~deadline:cfg.lp_deadline ~retries:cfg.lp_retries
            ~warm_start:true ~warm
            ~ids:(Array.map (fun e -> e.id) entries)
            ~origin:epoch_start ~on_failure inst)
    in
    Option.iter
      (fun lp ->
        st.s_lp_iterations <- st.s_lp_iterations + lp.Lp_relax.iterations)
      lp;
    lp
  in
  let tier, order =
    Resilient.chain
      ~primary:(if slo then Resilient.Rho else Resilient.Lp)
      ~outage ~lp inst
  in
  if tier <> Resilient.Lp then begin
    let cause, counter =
      if slo then ("slo_pressure", c_degrade_slo)
      else
        match outage with
        | `Full -> ("outage_full", c_degrade_outage)
        | `Lp_only -> ("outage_lp", c_degrade_outage)
        | `None -> ("lp_budget", c_degrade_lp)
    in
    st.s_degradations <- st.s_degradations + 1;
    Obs.Counter.incr c_degradations;
    Obs.Counter.incr counter;
    if Obs.Trace.enabled () then
      Obs.Trace.instant
        ~args:[ ("cause", "\"" ^ cause ^ "\"") ]
        ~name:"degrade" ~cat:"service" ~slot:epoch_start ()
  end;
  (tier, order)

let c_batched = Obs.Counter.make "service.batched_slots"

let run ?(plan_seed = 0) ?(batch = true) ?observer cfg src ~coflows:total =
  validate_config cfg;
  if total < 0 then invalid_arg "Epoch_loop.run: coflows must be >= 0";
  Obs.Span.with_ "service.run" @@ fun () ->
  let ports = Arrivals.ports src in
  let net = match cfg.net with Some n -> n | None -> Net.single ~ports in
  let fabrics = Net.k net in
  (match cfg.net with
  | Some net when Net.ports net <> ports ->
    invalid_arg "Epoch_loop.run: net ports disagree with the arrival source"
  | _ -> ());
  let st =
    { s_arrived = 0;
      s_admitted = 0;
      s_rej_queue = 0;
      s_rej_deadline = 0;
      s_completed = 0;
      s_twct = 0.0;
      s_slots = 0;
      s_epochs = 0;
      s_idle_jumps = 0;
      s_tier_slots = Array.make 3 0;
      s_degradations = 0;
      s_slo_degradations = 0;
      s_reaction_degradations = 0;
      s_lp_failures = 0;
      s_lp_iterations = 0;
      s_deadline_misses = 0;
      s_max_live = 0;
      s_max_live_epoch = 0;
      s_bound_sum = 0.0;
      s_audited = 0;
      s_violation = None;
    }
  in
  let fp = Fingerprint.create () in
  (* decisions only (admit / reject / complete): the watchdog compares
     successive values to detect a frozen decision stream, which tier
     switches and slot counts would mask *)
  let dfp = Fingerprint.create () in
  let waits = Buckets.create () in
  let now = ref 0 in
  let to_arrive = ref total in
  let live_rev = ref [] (* reverse admission order *) and n_live = ref 0 in
  let backlog = ref 0 (* total residual units across the live set *) in
  let warm = ref None in
  (* pull every arrival due by "now" through admission *)
  let admit_due () =
    let continue = ref true in
    while !continue && !to_arrive > 0 do
      match Arrivals.peek_arrival src with
      | None -> to_arrive := 0
      | Some a when a > !now -> continue := false
      | Some _ ->
        let c = Option.get (Arrivals.next src) in
        to_arrive := !to_arrive - 1;
        st.s_arrived <- st.s_arrived + 1;
        Obs.Counter.incr c_arrivals;
        (match
           Admission.decide cfg.admission ~ports ~live:!n_live
             ~backlog_units:!backlog ~now:!now c
         with
        | Admission.Admit { deadline } ->
          st.s_admitted <- st.s_admitted + 1;
          Obs.Counter.incr c_admitted;
          let e =
            { id = c.Arrivals.id;
              admitted_at = !now;
              weight = c.Arrivals.weight;
              deadline;
              iso_bound = Admission.isolation_bound c.Arrivals.demand;
              demand = c.Arrivals.demand;
              first_service = None;
              straggled = false;
            }
          in
          live_rev := e :: !live_rev;
          incr n_live;
          backlog := !backlog + Matrix.Mat.total c.Arrivals.demand;
          Fingerprint.str fp "A";
          Fingerprint.int fp c.Arrivals.id;
          Fingerprint.str dfp "A";
          Fingerprint.int dfp c.Arrivals.id
        | Admission.Reject r ->
          (match r with
          | Admission.Queue_full ->
            st.s_rej_queue <- st.s_rej_queue + 1;
            Obs.Counter.incr c_rej_queue
          | Admission.Deadline_unmeetable ->
            st.s_rej_deadline <- st.s_rej_deadline + 1;
            Obs.Counter.incr c_rej_deadline);
          Fingerprint.str fp "R";
          Fingerprint.int fp c.Arrivals.id;
          Fingerprint.str dfp "R";
          Fingerprint.int dfp c.Arrivals.id)
    done
  in
  let run_epoch () =
    Obs.Span.with_ "service.epoch" @@ fun () ->
    let epoch_start = !now in
    let epoch_index = st.s_epochs in
    let entries = Array.of_list (List.rev !live_rev) in
    let n = Array.length entries in
    let backlog_start = !backlog in
    if n > st.s_max_live then st.s_max_live_epoch <- epoch_index;
    st.s_max_live <- max st.s_max_live n;
    Obs.Counter.Gauge.set g_live (float_of_int n);
    Obs.Counter.Gauge.set g_max_live (float_of_int st.s_max_live);
    Obs.Histogram.observe h_queue n;
    let inst =
      Instance.make ~ports
        (Array.to_list
           (Array.map
              (fun e ->
                { Instance.id = e.id;
                  release = 0;
                  demand = e.demand;
                  weight = e.weight;
                })
              entries))
    in
    let plan =
      let raw =
        match cfg.faults with
        | Scripted script -> script ~epoch:epoch_index ~coflows:n
        | Seeded intensity when intensity > 0.0 ->
          Fault_plan.random ~intensity ~fabrics ~ports ~coflows:n
            ~horizon:cfg.epoch_length
            (Random.State.make [| plan_seed; 0xFA; st.s_epochs |])
        | Seeded _ -> Fault_plan.empty
      in
      (* A straggler doubles a coflow's residual demand.  A batch run
         draws its plan once, so each coflow straggles O(1) times; an
         open-ended service redraws every epoch, and re-doubling
         long-lived residuals grows them exponentially — the backlog
         would outrun any service rate and the run would never drain.
         Real announced demand can only turn out wrong about a coflow so
         many times, so: at most one straggler per coflow lifetime. *)
      Fault_plan.make
        (List.filter
           (function
             | Fault_plan.Straggler { coflow = k; _ } ->
               if entries.(k).straggled then false
               else begin
                 entries.(k).straggled <- true;
                 true
               end
             | _ -> true)
           (Fault_plan.events raw))
    in
    let inj = Injector.create ~net ~plan ~ports (Instance.demands inst) in
    let sim = Injector.sim inj in
    let tier, order = plan_epoch cfg ~epoch_start ~entries ~plan ~warm ~st inst in
    Fingerprint.str fp "T";
    Fingerprint.int fp (Resilient.tier_index tier);
    let checker = Audit.checker ~net ~plan ~ports () in
    let recorded = Array.make n false in
    let record_completion k c_abs =
      recorded.(k) <- true;
      let e = entries.(k) in
      st.s_completed <- st.s_completed + 1;
      Obs.Counter.incr c_completed;
      st.s_twct <- st.s_twct +. (e.weight *. float_of_int c_abs);
      (* C_k >= a_k + rho_k: the coflow's isolation load cannot drain
         faster than one unit per slot per port, so this term certifies a
         per-coflow lower bound and the sum lower-bounds the TWCT *)
      st.s_bound_sum <-
        st.s_bound_sum +. (e.weight *. float_of_int (e.admitted_at + e.iso_bound));
      Obs.Histogram.observe h_flow (c_abs - e.admitted_at);
      (match e.deadline with
      | Some d when c_abs > d ->
        st.s_deadline_misses <- st.s_deadline_misses + 1;
        Obs.Counter.incr c_deadline_misses
      | _ -> ());
      Fingerprint.str fp "C";
      Fingerprint.int fp e.id;
      Fingerprint.int fp c_abs;
      Fingerprint.str dfp "C";
      Fingerprint.int dfp e.id;
      Fingerprint.int dfp c_abs
    in
    let serving = ref true in
    (* Event-driven serving: the greedy decision is a pure function of the
       released and completed sets, the residual demand structure and the
       compiled fault state.  The batch step stops at the first three's
       changes (releases move only through the plan's release delays);
       the fault state, stragglers included, holds still until
       [stable_until], so the cap stops there and at the epoch's end.  An
       empty plan never changes state ([stable_until = max_int]). *)
    let faults = Injector.faults inj in
    let view = Policy.live_view () in
    let units_served = ref 0 in
    while
      !serving
      && (not (Simulator.all_complete sim))
      && Simulator.now sim < cfg.epoch_length
    do
      Injector.tick inj;
      let transfers =
        Policy.greedy_matching ~faults sim
          ~priority:(Policy.live_slice view sim order ~pos:0)
      in
      let start = Simulator.now sim in
      let slots =
        Simulator.step_batch sim transfers
          ~cap:
            (if batch then
               min cfg.epoch_length (Fault_plan.stable_until faults) - start
             else 1)
      in
      units_served := !units_served + (slots * List.length transfers);
      if slots > 1 then Obs.Counter.incr c_batched ~by:(slots - 1);
      let local_now = Simulator.now sim in
      (* first service lands in the batch's first slot, completions in its
         last — the batch step sizes it so that nothing happens in
         between *)
      let abs_first = epoch_start + start + 1 in
      List.iter
        (fun { Simulator.coflow = k; _ } ->
          let e = entries.(k) in
          if e.first_service = None then begin
            e.first_service <- Some abs_first;
            let w = abs_first - e.admitted_at in
            Buckets.observe waits w;
            Obs.Histogram.observe h_wait w
          end)
        transfers;
      (* a positive-demand coflow completes in a slot that served it, so
         scanning the slot's transfers finds its completion exactly once *)
      List.iter
        (fun { Simulator.coflow = k; _ } ->
          if (not recorded.(k)) && Simulator.is_complete sim k then
            record_completion k (epoch_start + local_now))
        transfers;
      (match Audit.feed_many checker transfers ~slots with
      | Ok () ->
        st.s_audited <- st.s_audited + slots;
        Obs.Counter.incr c_audited ~by:slots
      | Error msg ->
        st.s_violation <-
          Some (epoch_start + start, Printf.sprintf "epoch %d: %s" epoch_index msg);
        serving := false)
    done;
    let slots_run = Simulator.now sim in
    now := epoch_start + slots_run;
    st.s_slots <- st.s_slots + slots_run;
    st.s_tier_slots.(Resilient.tier_index tier) <-
      st.s_tier_slots.(Resilient.tier_index tier) + slots_run;
    Obs.Counter.incr c_slots ~by:slots_run;
    st.s_epochs <- st.s_epochs + 1;
    Obs.Counter.incr c_epochs;
    Obs.Histogram.observe h_epoch slots_run;
    Fingerprint.int fp slots_run;
    (* carry survivors (and their residual demands) into the next epoch;
       zero-demand coflows (possible in replayed traces) are complete from
       slot 0 without ever appearing in a transfer — record them here *)
    let survivors = ref [] and bl = ref 0 in
    Array.iteri
      (fun k e ->
        if Simulator.is_complete sim k then begin
          if not recorded.(k) then
            record_completion k
              (epoch_start
              + Option.value ~default:0 (Simulator.completion_time sim k))
        end
        else begin
          e.demand <- Simulator.remaining sim k;
          bl := !bl + Simulator.remaining_total sim k;
          survivors := e :: !survivors
        end)
      entries;
    live_rev := !survivors;
    n_live := List.length !survivors;
    backlog := !bl;
    (match observer with
    | None -> ()
    | Some f ->
      let src_active = Array.make ports false
      and dst_active = Array.make ports false in
      List.iter
        (fun e ->
          Matrix.Mat.iter_nonzero
            (fun i j _ ->
              src_active.(i) <- true;
              dst_active.(j) <- true)
            e.demand)
        !survivors;
      let active a =
        Array.fold_left (fun n b -> if b then n + 1 else n) 0 a
      in
      f
        { ev_epoch = epoch_index;
          ev_start = epoch_start;
          ev_now = !now;
          ev_slots = slots_run;
          ev_tier = tier;
          ev_live_before = n;
          ev_live_after = !n_live;
          ev_backlog = !bl;
          ev_units_served = !units_served;
          (* conservation check: with demand fixed, what entered must be
             what is left plus what was served; a straggler growing demand
             in place mid-epoch is the only way this goes positive *)
          ev_demand_surplus = !bl + !units_served - backlog_start;
          ev_port_spread = min (active src_active) (active dst_active);
          ev_fault_events = List.length (Fault_plan.events plan);
          ev_stats = snapshot st waits fp;
          ev_decision_fingerprint = Fingerprint.hex dfp;
        });
    if st.s_slots > cfg.max_slots then
      failwith "Epoch_loop.run: max_slots exhausted"
  in
  while (!to_arrive > 0 || !live_rev <> []) && st.s_violation = None do
    admit_due ();
    if !live_rev = [] then begin
      if !to_arrive > 0 then
        match Arrivals.peek_arrival src with
        | None -> to_arrive := 0
        | Some a ->
          (* nothing live and nothing due: jump straight to the next
             arrival instead of simulating empty slots *)
          if a > !now then begin
            now := a;
            st.s_idle_jumps <- st.s_idle_jumps + 1;
            Obs.Counter.incr c_idle_jumps
          end
    end
    else run_epoch ()
  done;
  Obs.Counter.Gauge.set g_live 0.0;
  snapshot st waits fp

open Matrix

type transfer = { src : int; dst : int; coflow : int; fabric : int }

exception Invalid_slot of string

type t = {
  ports : int;
  net : Net.t;
  kf : int; (* Net.k net *)
  rates : int array; (* per-fabric rate, indexed by fabric *)
  validate : slots:int -> transfer list -> (unit, string) result;
  releases : int array;
  demand : Mat.t array; (* private copies, mutated in place as units move *)
  left : int array; (* remaining units per coflow *)
  completed : int array; (* completion slot, -1 if unfinished *)
  first_served : int array; (* slot of the first transfer, -1 if never *)
  mutable unfinished : int;
  mutable grown : int; (* entries [add_demand] created or revived *)
  dates : int array; (* every release date, sorted ascending *)
  mutable clock : int;
  mutable moved : int;
  (* scratch buffers reused across slots; fabric f's port p lives at
     index [f * ports + p], so one fill clears every fabric *)
  src_pair : int array;
      (* [coflow * ports + dst] of the transfer an ingress serves in the
         slot being validated, -1 while it is idle *)
  dst_used : bool array;
  have : int array;
      (* the served entries' demand as validation read it, by position in
         the slot's transfer list: a valid slot has at most [kf * ports]
         transfers *)
  mutable claims : int array;
      (* the pairs [claim_rows] found, two ints each: one claim per row;
         empty until the first [claim_rows], since only an unrestricted
         greedy sweep writes it *)
}

let create ?(validate = fun ~slots:_ _ -> Ok ()) ?net ~ports demands =
  if ports <= 0 then invalid_arg "Simulator.create: ports must be positive";
  let net =
    match net with
    | None -> Net.single ~ports
    | Some n ->
      if Net.ports n <> ports then
        invalid_arg "Simulator.create: net port count mismatch";
      n
  in
  let kf = Net.k net in
  let n = List.length demands in
  let releases = Array.make n 0 in
  let demand = Array.make n (Mat.make ports) in
  let left = Array.make n 0 in
  List.iteri
    (fun k (r, d) ->
      if r < 0 then invalid_arg "Simulator.create: negative release date";
      if Mat.dim d <> ports then
        invalid_arg "Simulator.create: demand dimension mismatch";
      releases.(k) <- r;
      demand.(k) <- Mat.copy d;
      left.(k) <- Mat.total d)
    demands;
  let completed = Array.make n (-1) in
  let unfinished = ref 0 in
  Array.iteri
    (fun k l -> if l = 0 then completed.(k) <- 0 else incr unfinished)
    left;
  { ports;
    net;
    kf;
    rates = Array.init kf (Net.rate net);
    validate;
    releases;
    demand;
    left;
    completed;
    first_served = Array.make n (-1);
    unfinished = !unfinished;
    grown = 0;
    dates =
      (let d = Array.copy releases in
       Array.sort compare d;
       d);
    clock = 0;
    moved = 0;
    src_pair = Array.make (kf * ports) (-1);
    dst_used = Array.make (kf * ports) false;
    have = Array.make (kf * ports) 0;
    claims = [||];
  }

let ports t = t.ports

let net t = t.net

let num_fabrics t = t.kf

let fabric_rate t f =
  if f < 0 || f >= t.kf then
    invalid_arg "Simulator.fabric_rate: fabric out of range";
  t.rates.(f)

let num_coflows t = Array.length t.releases

let now t = t.clock

let check_coflow t k =
  if k < 0 || k >= num_coflows t then
    invalid_arg "Simulator: coflow index out of range"

let release_time t k =
  check_coflow t k;
  t.releases.(k)

let set_release t k r =
  check_coflow t k;
  if t.releases.(k) <= t.clock then
    invalid_arg "Simulator.set_release: coflow already released";
  if r < t.clock then
    invalid_arg "Simulator.set_release: cannot release in the past";
  (* move one copy of the old date to [r] in the sorted [dates], O(n):
     start at the first copy and shift the dates in between by one *)
  let d = t.dates and old = t.releases.(k) in
  let p = ref 0 in
  while d.(!p) < old do
    incr p
  done;
  while !p + 1 < Array.length d && d.(!p + 1) < r do
    d.(!p) <- d.(!p + 1);
    incr p
  done;
  while !p > 0 && d.(!p - 1) > r do
    d.(!p) <- d.(!p - 1);
    decr p
  done;
  d.(!p) <- r;
  t.releases.(k) <- r

let released t k =
  check_coflow t k;
  t.releases.(k) <= t.clock

(* Index of the first release date strictly after the clock: the number
   of released coflows, and where the next pending release sits.  One
   binary search over the sorted dates. *)
let first_pending t =
  let lo = ref 0 and hi = ref (Array.length t.dates) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.dates.(mid) > t.clock then hi := mid else lo := mid + 1
  done;
  !lo

let released_count t = first_pending t

let unfinished_count t = t.unfinished

let remaining t k =
  check_coflow t k;
  Mat.copy t.demand.(k)

let remaining_load t k =
  check_coflow t k;
  Mat.load t.demand.(k)

let iter_remaining t k f =
  check_coflow t k;
  Mat.iter_nonzero f t.demand.(k)

let remaining_live_mask t k w =
  check_coflow t k;
  Mat.live_mask t.demand.(k) w

let remaining_row_mask t k i w =
  check_coflow t k;
  Mat.row_mask t.demand.(k) i w

let remaining_first_dst t k i ~avail ~off =
  check_coflow t k;
  Mat.first_col t.demand.(k) i ~avail ~off

let claim_rows t k ~free_src ~free_dst ~off =
  check_coflow t k;
  if Array.length t.claims = 0 then t.claims <- Array.make (2 * t.ports) 0;
  Mat.claim_rows t.demand.(k) ~src:free_src ~dst:free_dst ~off ~out:t.claims

let claims t = t.claims

let remaining_at t k i j =
  check_coflow t k;
  Mat.get t.demand.(k) i j

let remaining_total t k =
  check_coflow t k;
  t.left.(k)

let is_complete t k =
  check_coflow t k;
  t.left.(k) = 0

let add_demand t k ~src ~dst units =
  check_coflow t k;
  if src < 0 || src >= t.ports || dst < 0 || dst >= t.ports then
    invalid_arg "Simulator.add_demand: port out of range";
  if units <= 0 then invalid_arg "Simulator.add_demand: units must be positive";
  if t.left.(k) = 0 then
    invalid_arg "Simulator.add_demand: coflow already complete";
  let fresh = Mat.get t.demand.(k) src dst = 0 in
  Mat.add_entry t.demand.(k) src dst units;
  if fresh then t.grown <- t.grown + 1;
  t.left.(k) <- t.left.(k) + units

let grown_entries t = t.grown

let all_complete t = t.unfinished = 0

let completion_time t k =
  check_coflow t k;
  if t.completed.(k) >= 0 then Some t.completed.(k) else None

let completion_time_exn t k =
  match completion_time t k with
  | Some c -> c
  | None -> invalid_arg "Simulator.completion_time_exn: coflow unfinished"

let first_service_time t k =
  check_coflow t k;
  if t.first_served.(k) >= 0 then Some t.first_served.(k) else None

(* ---- flight-recorder hooks (all gated on one atomic load each) ---- *)

let h_wait = Obs.Histogram.make "coflow.wait_slots"

let h_flow = Obs.Histogram.make "coflow.flow_slots"

(* Coflows whose release date equals the current clock become serviceable
   in the slot about to execute: open their "wait" slice.  Called at the
   top of [step], which every driver (run, Recorder, Resilient, Injector)
   funnels through, so the trace sees releases regardless of the loop.
   A batch never jumps over a release ([step_batch] stops it at the next
   pending one), so release instants still land exactly once. *)
let trace_releases t =
  Array.iteri
    (fun k r ->
      if r = t.clock && t.left.(k) > 0 then
        Obs.Trace.async_begin ~name:"wait" ~cat:"coflow" ~id:k ~slot:r)
    t.releases

let trace_first_service ~slot k =
  Obs.Trace.async_end ~name:"wait" ~cat:"coflow" ~id:k ~slot;
  Obs.Trace.async_begin ~name:"serve" ~cat:"coflow" ~id:k ~slot

let trace_completion t k =
  Obs.Trace.async_end ~name:"serve" ~cat:"coflow" ~id:k ~slot:t.clock

(* Validate the slot's [transfers] from position [idx] on, keeping each
   served entry's demand in [t.have]; returns [bound] lowered to the
   slots every served pair survives, [ceil (have / rate)]: the batch's
   last slot may zero a pair, no earlier one does. *)
let rec check_slot t idx bound = function
  | [] -> bound
  | { src; dst; coflow; fabric } :: rest ->
    if fabric < 0 || fabric >= t.kf then
      raise (Invalid_slot (Printf.sprintf "fabric out of range: %d" fabric));
    if src < 0 || src >= t.ports || dst < 0 || dst >= t.ports then
      raise (Invalid_slot (Printf.sprintf "port out of range: %d->%d" src dst));
    if coflow < 0 || coflow >= num_coflows t then
      raise (Invalid_slot (Printf.sprintf "unknown coflow %d" coflow));
    let fb = fabric * t.ports in
    if t.src_pair.(fb + src) >= 0 then
      raise
        (Invalid_slot
           (if t.kf = 1 then Printf.sprintf "ingress %d used twice" src
            else
              Printf.sprintf "fabric %d: ingress %d used twice" fabric src));
    if t.dst_used.(fb + dst) then
      raise
        (Invalid_slot
           (if t.kf = 1 then Printf.sprintf "egress %d used twice" dst
            else Printf.sprintf "fabric %d: egress %d used twice" fabric dst));
    (* the same (coflow, src, dst) entry may be drained by at most one
       fabric per slot — parallel drains of one entry would race the
       demand decrement.  A second fabric draining it serves the same
       ingress there, so the other fabrics' [src_pair] slots tell; on
       one fabric the loop reads only this transfer's own idle slot *)
    let pair = (coflow * t.ports) + dst in
    for g = 0 to t.kf - 1 do
      if t.src_pair.((g * t.ports) + src) = pair then
        raise
          (Invalid_slot
             (Printf.sprintf
                "coflow %d pair (%d, %d) served on two fabrics in one slot"
                coflow src dst))
    done;
    t.src_pair.(fb + src) <- pair;
    t.dst_used.(fb + dst) <- true;
    if t.releases.(coflow) > t.clock then
      raise
        (Invalid_slot
           (Printf.sprintf "coflow %d served before release %d at time %d"
              coflow t.releases.(coflow) t.clock));
    let have = Mat.get t.demand.(coflow) src dst in
    if have <= 0 then
      raise
        (Invalid_slot
           (Printf.sprintf "coflow %d has no demand on (%d, %d)" coflow src
              dst));
    let rate = t.rates.(fabric) in
    let survives = if rate = 1 then have else ((have - 1) / rate) + 1 in
    (* the ingress check above bounds [idx] by [kf * ports] *)
    t.have.(idx) <- have;
    check_slot t (idx + 1) (min bound survives) rest

(* Commit one transfer list for [n] consecutive slots and return [n],
   the smallest of [cap], the slots to the next pending release and the
   slots each served pair survives, read by the validation pass.  No
   coflow is then released, none completes and no entry empties strictly
   inside the batch: first service lands in its first slot, completions
   at its last, exactly as [n] calls of [step] would place them. *)
let step_batch t transfers ~cap =
  if cap < 1 then invalid_arg "Simulator.step_batch: cap must be >= 1";
  (* per-fabric core budgets from the topology (the two-tier
     oversubscription, now a per-fabric option of the net) *)
  for f = 0 to t.kf - 1 do
    match Net.core_capacity t.net f with
    | None -> ()
    | Some limit ->
      let used =
        List.fold_left
          (fun acc tr ->
            if
              tr.fabric = f
              && Net.crosses_core t.net ~fabric:f ~src:tr.src ~dst:tr.dst
            then acc + 1
            else acc)
          0 transfers
      in
      if used > limit then
        raise
          (Invalid_slot
             (if t.kf = 1 then
                Printf.sprintf
                  "core capacity exceeded: %d inter-rack transfers > %d" used
                  limit
              else
                Printf.sprintf
                  "fabric %d: core capacity exceeded: %d inter-rack transfers \
                   > %d"
                  f used limit))
  done;
  Array.fill t.src_pair 0 (t.kf * t.ports) (-1);
  Array.fill t.dst_used 0 (t.kf * t.ports) false;
  (* a batch stops short of the next pending release; a per-slot step
     skips the search *)
  let p = if cap > 1 then first_pending t else Array.length t.dates in
  let bound =
    if p < Array.length t.dates then min cap (t.dates.(p) - t.clock) else cap
  in
  let n = check_slot t 0 bound transfers in
  (* the caller's own constraints, on the batch as sized *)
  (match t.validate ~slots:n transfers with
  | Ok () -> ()
  | Error msg -> raise (Invalid_slot msg));
  (* commit *)
  let tracing = Obs.Trace.enabled () in
  if tracing then trace_releases t;
  let start = t.clock in
  t.clock <- t.clock + n;
  List.iteri
    (fun idx { src; dst; coflow; fabric } ->
      (* no two transfers share an entry, so validation's read is still
         current: one write per served pair, no second lookup *)
      let have = t.have.(idx) in
      let moved = min (n * t.rates.(fabric)) have in
      Mat.replace t.demand.(coflow) src dst ~old:have (have - moved);
      t.left.(coflow) <- t.left.(coflow) - moved;
      t.moved <- t.moved + moved;
      if t.first_served.(coflow) < 0 then begin
        t.first_served.(coflow) <- start + 1;
        if tracing then trace_first_service ~slot:(start + 1) coflow
      end;
      if t.left.(coflow) = 0 then begin
        t.completed.(coflow) <- t.clock;
        t.unfinished <- t.unfinished - 1;
        if tracing then trace_completion t coflow;
        if Obs.Histogram.enabled () then begin
          (* waiting = idle slots between release and first service (first
             service in slot r+1 means zero wait); flow = completion
             relative to release *)
          Obs.Histogram.observe h_wait
            (t.first_served.(coflow) - 1 - t.releases.(coflow));
          Obs.Histogram.observe h_flow (t.clock - t.releases.(coflow))
        end
      end)
    transfers;
  if tracing then
    (* one counter event per decision; Perfetto holds the value until the
       next event, which is exactly the batched slots' per-slot truth *)
    Obs.Trace.counter ~name:"slot" ~slot:t.clock
      [ ("transfers", List.length transfers) ];
  n

let step t transfers = ignore (step_batch t transfers ~cap:1)

let c_slots = Obs.Counter.make "sim.slots"

let c_units = Obs.Counter.make "sim.units_moved"

let c_batch_steps = Obs.Counter.make "sim.batch_steps"

let c_batched_slots = Obs.Counter.make "sim.batched_slots"

let h_service = Obs.Histogram.make "slot.service_ns"

(* The one loop that steps a run to completion.  Each decision answers
   with the slot's transfers and a cap, the policy's own boundary
   ([1 <= cap <= max_n]; a per-slot policy answers 1); [step_batch]
   sizes the batch within the cap and commits it, and [committed] hears
   how many slots it covered.  Budget accounting is slot-exact: [max_n] never
   exceeds the remaining budget, so a run that would exhaust [max_slots]
   slot by slot exhausts it here too. *)
let run ?(max_slots = 10_000_000) t ~policy ~committed =
  Obs.Span.with_ "sim.run" @@ fun () ->
  let budget = ref max_slots and decisions = ref 0 in
  while not (all_complete t) do
    if !budget <= 0 then failwith "Simulator.run: slot budget exhausted";
    (* per-decision wall time (decision + commit), only measured while
       histograms are on: the disabled hot path stays one atomic load *)
    let t0 = if Obs.Histogram.enabled () then Obs.Clock.now_ns () else 0 in
    let transfers, cap = policy t ~max_n:!budget in
    if cap < 1 || cap > !budget then
      invalid_arg "Simulator.run: policy returned a bad batch cap";
    let before = t.moved in
    let n = step_batch t transfers ~cap in
    budget := !budget - n;
    incr decisions;
    committed n;
    if t0 > 0 then
      Obs.Histogram.observe h_service (Obs.Clock.elapsed_ns ~since:t0);
    Obs.Counter.incr c_slots ~by:n;
    Obs.Counter.incr c_units ~by:(t.moved - before);
    Obs.Counter.incr c_batch_steps;
    if n > 1 then Obs.Counter.incr c_batched_slots ~by:(n - 1)
  done;
  !decisions

let total_weighted_completion t w =
  if Array.length w < num_coflows t then
    invalid_arg "Simulator.total_weighted_completion: weight vector too short";
  let acc = ref 0.0 in
  Array.iteri
    (fun k c ->
      if c < 0 then
        invalid_arg "Simulator.total_weighted_completion: unfinished coflow";
      acc := !acc +. (w.(k) *. float_of_int c))
    t.completed;
  !acc

let units_moved t = t.moved

let utilization t =
  if t.clock = 0 then 0.0
  else float_of_int t.moved /. float_of_int (t.ports * t.clock)

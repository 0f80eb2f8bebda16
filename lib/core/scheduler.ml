open Matrix
open Workload
open Switchsim

type case = Base | Backfill | Group | Group_backfill

let all_cases = [ Base; Backfill; Group; Group_backfill ]

let case_name = function
  | Base -> "a"
  | Backfill -> "b"
  | Group -> "c"
  | Group_backfill -> "d"

type result = Engine.result = {
  completion : int array;
  twct : float;
  slots : int;
  seconds : float;
  utilization : float;
  matchings : int;
  decisions : int;
}

(* Per-run buffers of the replay, sized on first use: the owner position
   per source and the unclaimed-source bitset of [assign_pairs], the
   cross-fabric dedupe table, the identity order the leftover path scans,
   and the live views of the two greedy slices.  Never a global: the
   engine runs steppers on several domains. *)
type scratch = {
  mutable owner : int array;
  mutable unclaimed : int array;
  taken : (int, unit) Hashtbl.t;
  mutable ids : int array;
  suffix_view : Policy.live_view;
  fill_view : Policy.live_view;
}

type state = {
  order : int array;
  start : int array;
      (* group u is order.[start u, start (u+1)); its suffix — the backfill
         candidates — is order.[start (u+1), n) *)
  mutable current : int; (* group index *)
  mutable queue : Bvn.schedule;
      (* remaining BvN matchings of the active group, as built *)
  mutable spent : int array;
      (* spent.(p): slot budget the p-th queue entry has used, for the
         [kf] active entries; 0 tells a first use apart from a reuse *)
  mutable matchings_built : int;
  mutable matchings_reused : int;
  scratch : scratch;
}

(* One flat order and the group offsets: O(n) words whatever the grouping,
   so singleton groupings of many coflows stay cheap. *)
let make_state groups =
  let n_groups = Array.length groups in
  let start = Array.make (n_groups + 1) 0 in
  for u = 0 to n_groups - 1 do
    start.(u + 1) <- start.(u) + Array.length groups.(u)
  done;
  let order = Array.make start.(n_groups) 0 in
  Array.iteri
    (fun u g -> Array.blit g 0 order start.(u) (Array.length g))
    groups;
  { order;
    start;
    current = 0;
    queue = [];
    spent = [||];
    matchings_built = 0;
    matchings_reused = 0;
    scratch =
      { owner = [||];
        unclaimed = [||];
        taken = Hashtbl.create 16;
        ids = [||];
        suffix_view = Policy.live_view ();
        fill_view = Policy.live_view ();
      };
  }

let group_count state = Array.length state.start - 1

(* whether every member of group [u] satisfies [f] *)
let group_all state u f =
  let p = ref state.start.(u) in
  while !p < state.start.(u + 1) && f state.order.(!p) do
    incr p
  done;
  !p = state.start.(u + 1)

(* Aggregate remaining demand of a group: O(group nonzeros), never
   O(ports^2). *)
let aggregate_remaining sim state u =
  let d = Mat.make (Simulator.ports sim) in
  for p = state.start.(u) to state.start.(u + 1) - 1 do
    Simulator.iter_remaining sim state.order.(p) (fun i j v ->
        Mat.add_entry d i j v)
  done;
  d

(* Owner of every pair of the perfect [matching] (destination per source):
   for pair (i, matching.(i)), the first coflow of order.[lo, hi) — the
   group, then with backfill its suffix — that is released and still owes
   the pair.  Pair assignments are independent, so this coflow-major
   bitset sweep picks exactly what a per-pair first-owner scan picks, at
   O(candidates * words) instead of O(pairs * candidates * log): a
   coflow's claimable pairs are one [land] of its live-row mask with the
   still-unclaimed sources.  With [exclude], a (coflow, src, dst) entry
   already served on another fabric this slot is never assigned again — a
   concurrent matching's pair falls through to the next owning coflow.
   Writes the owner's position in [order] per source, -1 for none, into
   the scratch; allocates nothing. *)
let assign_pairs state sim matching ~lo ~hi ~exclude =
  let m = Simulator.ports sim in
  let words = Bits.words_for m and bpw = Bits.bits_per_word in
  let { owner; unclaimed; taken; _ } = state.scratch in
  Array.fill owner 0 m (-1);
  for w = 0 to words - 1 do
    unclaimed.(w) <- Bits.low_mask (min bpw (m - (w * bpw)))
  done;
  let left = ref m in
  let p = ref lo in
  while !left > 0 && !p < hi do
    let k = state.order.(!p) in
    if Simulator.released sim k then
      for w = 0 to words - 1 do
        let cand =
          ref (Simulator.remaining_live_mask sim k w land unclaimed.(w))
        in
        while !cand <> 0 do
          let b = !cand land - !cand in
          cand := !cand lxor b;
          let i = (w * bpw) + Bits.ntz b in
          let j = matching.(i) in
          if
            Simulator.remaining_row_mask sim k i (Bits.word_of j)
            land (1 lsl Bits.bit_of j)
            <> 0
            && not (exclude && Hashtbl.mem taken ((((k * m) + i) * m) + j))
          then begin
            owner.(i) <- !p;
            unclaimed.(w) <- unclaimed.(w) lxor b;
            decr left
          end
        done
      done;
    incr p
  done

(* A fabric with a core budget carries at most that many inter-rack pairs
   per slot, as {!Policy.greedy_matching} does: the group's pairs claim the
   budget first, then the backfill pairs (owner at or after [mid]), each
   source ascending; the pairs left over idle.  Rack-local pairs are never
   dropped. *)
let cap_core state net ~fabric matching ~mid ~m =
  match Net.core_capacity net fabric with
  | None -> ()
  | Some cap ->
    let owner = state.scratch.owner and left = ref cap in
    for pass = 0 to 1 do
      for i = 0 to m - 1 do
        let p = owner.(i) in
        if
          p >= 0
          && (p >= mid) = (pass = 1)
          && Net.crosses_core net ~fabric ~src:i ~dst:matching.(i)
        then if !left > 0 then decr left else owner.(i) <- -1
      done
    done

(* Per-call accounting, folded into the state, the obs counters and the
   slot-event stream by the [next_slot] wrapper below.  A batched call
   accounts for every slot it covers, so the totals are identical to the
   slot-by-slot loop's. *)
type slot_meta = {
  mutable m_built : int;
  mutable m_reused : int;
  mutable m_backfilled : int;
}

let c_built = Obs.Counter.make "sched.matchings_built"

let c_reused = Obs.Counter.make "sched.matchings_reused"

let c_backfilled = Obs.Counter.make "sched.backfilled_units"

(* Greedy over live candidates — the leftovers, or the suffix while a group
   is gated by a release — and the batch it holds for. *)
let greedy_slot sim ~meta ~max_n live =
  let transfers = Policy.greedy_matching sim ~priority:live in
  let n = Policy.skip_bound sim transfers ~max_n in
  meta.m_backfilled <- meta.m_backfilled + (n * List.length transfers);
  (transfers, n)

(* The active queue entries that used up their slot budget leave; only the
   first [kf] entries are ever served, so only they can run out.  The queue
   is rebuilt up to the last entry dropped, and kept as is when none is. *)
let drop_exhausted state kf =
  let spent = state.spent in
  let rec drop p w l =
    match l with
    | ((_, q) as e) :: tl when p < kf ->
      if spent.(p) >= q then drop (p + 1) w tl
      else begin
        spent.(w) <- spent.(p);
        let tl' = drop (p + 1) (w + 1) tl in
        if tl' == tl then l else e :: tl'
      end
    | rest ->
      Array.fill spent w (kf - w) 0;
      rest
  in
  state.queue <- drop 0 0 state.queue

(* One decision covering [n] consecutive identical slots, [1 <= n <= max_n].
   Every batch is bounded by {!Policy.skip_bound} (demand zeros and release
   boundaries) plus the active matching's remaining slot budget, so the
   transfers the slot-by-slot loop would pick at each covered slot are
   exactly these. *)
let rec slot_impl state ~backfill ~aggressive ~meta ~max_n sim =
  let n_groups = group_count state in
  let sc = state.scratch in
  (* advance past finished groups *)
  while
    state.current < n_groups
    && group_all state state.current (Simulator.is_complete sim)
  do
    state.current <- state.current + 1;
    state.queue <- []
  done;
  if state.current >= n_groups then begin
    (* Every group is done, yet the simulator may still hold unfinished
       coflows (a grouping that does not cover every coflow, or demand
       grown after grouping).  Returning [] here would idle every remaining
       slot until the budget trips; serve the leftovers greedily, in index
       order, instead. *)
    let n = Simulator.num_coflows sim in
    if Array.length sc.ids <> n then sc.ids <- Array.init n Fun.id;
    greedy_slot sim ~meta ~max_n
      (Policy.live_slice sc.suffix_view sim sc.ids ~pos:0)
  end
  else begin
    let u = state.current in
    match state.queue with
    | [] ->
      if not (group_all state u (Simulator.released sim)) then begin
        (* gated by a release date *)
        if backfill then
          greedy_slot sim ~meta ~max_n
            (Policy.live_slice sc.suffix_view sim state.order
               ~pos:state.start.(u + 1))
        else
          (* idle until the gating release: the classic event jump *)
          ([], Policy.skip_bound sim [] ~max_n)
      end
      else begin
        let schedule = Bvn.schedule (aggregate_remaining sim state u) in
        let built = List.length schedule in
        state.matchings_built <- state.matchings_built + built;
        meta.m_built <- meta.m_built + built;
        if built > 0 then Obs.Counter.incr c_built ~by:built;
        state.queue <- schedule;
        Array.fill state.spent 0 (Array.length state.spent) 0;
        if schedule = [] then
          (* The group's aggregate demand vanished even though the
             completion check above reported unfinished members (a state a
             demand-dropping fault layer or an externally stepped simulator
             can produce).  Idling here would repeat forever — the rebuild
             is deterministic — and spin until [max_slots]; advancing is
             the only progressing move. *)
          state.current <- state.current + 1;
        slot_impl state ~backfill ~aggressive ~meta ~max_n sim
      end
    | queue ->
      (* Serve up to one queued matching per fabric, the head of the queue
         on the fastest fabric.  On [Net.single] exactly the head matching
         is served, as in the single-switch schedule. *)
      let net = Simulator.net sim in
      let forder = Net.by_rate net in
      let kf = Array.length forder in
      let m = Simulator.ports sim in
      if Array.length sc.owner <> m then begin
        sc.owner <- Array.make m (-1);
        sc.unclaimed <- Array.make (Bits.words_for m) 0
      end;
      if Array.length state.spent < kf then state.spent <- Array.make kf 0;
      let exclude = kf > 1 in
      if exclude then Hashtbl.clear sc.taken;
      let mid = state.start.(u + 1) in
      let hi = if backfill then Array.length state.order else mid in
      let transfers = ref [] and backfill_picks = ref 0 in
      let budget_cap = ref max_n in
      let rec serve fi = function
        | (matching, q) :: tl when fi < kf ->
          let fabric = forder.(fi) in
          assign_pairs state sim matching ~lo:state.start.(u) ~hi ~exclude;
          cap_core state net ~fabric matching ~mid ~m;
          for i = 0 to m - 1 do
            let p = sc.owner.(i) in
            if p >= 0 then begin
              let k = state.order.(p) and j = matching.(i) in
              if p >= mid then incr backfill_picks;
              if exclude then
                Hashtbl.replace sc.taken ((((k * m) + i) * m) + j) ();
              transfers :=
                { Simulator.src = i; dst = j; coflow = k; fabric } :: !transfers
            end
          done;
          (* the batch may not outlive any active matching's slot budget —
             a rate-[v] fabric drains [v] budget units per slot *)
          let rate = Simulator.fabric_rate sim fabric in
          budget_cap :=
            min !budget_cap ((q - state.spent.(fi) + rate - 1) / rate);
          serve (fi + 1) tl
        | _ -> ()
      in
      serve 0 queue;
      let transfers, aggressive_picks =
        if aggressive then begin
          let served = !transfers in
          let filled =
            Policy.greedy_matching ~init:served sim
              ~priority:
                (Policy.live_slice sc.fill_view sim state.order
                   ~pos:state.start.(u))
          in
          (filled, List.length filled - List.length served)
        end
        else (!transfers, 0)
      in
      let n = Policy.skip_bound sim transfers ~max_n:!budget_cap in
      (* of the [n] covered slots, every one except a first use of a
         fresh matching is a reuse — exactly what the slot-by-slot loop
         counts one call at a time *)
      let rec account fi = function
        | _ :: tl when fi < kf ->
          let rate = Simulator.fabric_rate sim forder.(fi) in
          let reuses = n - (if state.spent.(fi) = 0 then 1 else 0) in
          if reuses > 0 then begin
            state.matchings_reused <- state.matchings_reused + reuses;
            meta.m_reused <- meta.m_reused + reuses;
            Obs.Counter.incr c_reused ~by:reuses
          end;
          state.spent.(fi) <- state.spent.(fi) + (n * rate);
          account (fi + 1) tl
        | _ -> ()
      in
      account 0 queue;
      meta.m_backfilled <-
        meta.m_backfilled + (n * (!backfill_picks + aggressive_picks));
      drop_exhausted state kf;
      (transfers, n)
  end

let next_slot_batched state ~backfill ?(aggressive = false) ~max_n sim =
  let meta = { m_built = 0; m_reused = 0; m_backfilled = 0 } in
  let slot = Simulator.now sim in
  let transfers, n = slot_impl state ~backfill ~aggressive ~meta ~max_n sim in
  if meta.m_backfilled > 0 then
    Obs.Counter.incr c_backfilled ~by:meta.m_backfilled;
  if Obs.Events.enabled () then
    Obs.Events.record
      { Obs.Events.slot;
        transfers = List.length transfers;
        active_group =
          (if state.current < group_count state then state.current else -1);
        built = meta.m_built;
        reused = meta.m_reused;
        backfilled = meta.m_backfilled;
      };
  if Obs.Trace.enabled () then
    (* which group was being cleared while other coflows waited, and how
       much of the slot was backfill — read next to the per-coflow "wait"
       tracks the simulator emits *)
    Obs.Trace.counter ~name:"sched" ~slot
      [ ( "active_group",
          if state.current < group_count state then state.current else -1 );
        ("built", meta.m_built);
        ("backfilled", meta.m_backfilled);
      ];
  (transfers, n)

let next_slot state ~backfill ?(aggressive = false) sim =
  fst (next_slot_batched state ~backfill ~aggressive ~max_n:1 sim)

let twct_of_completions inst completion =
  Metrics.total_weighted_completion ~weights:(Instance.weights inst) completion

let as_policy ?(backfill = false) ?(aggressive = false) ~describe groups =
  Policy.make ~describe (fun _sim ->
      let state = make_state groups in
      Policy.stepper
        ~next_batch:(fun sim ~max_n ->
          next_slot_batched state ~backfill ~aggressive ~max_n sim)
        ~matchings:(fun () -> state.matchings_built)
        (fun sim -> next_slot state ~backfill ~aggressive sim))

(* BvN augments a group's aggregate demand to a matrix whose rows and
   columns all sum to its load, a total of ports x load: refuse a group
   whose load passes [max_int / ports] before any slot is scheduled,
   instead of failing inside [Mat] mid-run. *)
let check_bvn_range inst groups =
  let m = Instance.ports inst in
  Array.iter
    (fun group ->
      let coflow k = Instance.coflow inst k in
      let v =
        Coflow.cumulative_loads
          (Array.map (fun k -> (coflow k).Instance.demand) group)
      in
      let load = v.(Array.length v - 1) in
      if load > max_int / m then
        invalid_arg
          (Printf.sprintf
             "Scheduler: the group of coflow %d has load %d; BvN would \
              augment it to %d ports x %d units, past max_int"
             (coflow group.(0)).Instance.id load m load))
    groups

let run_grouped ?(backfill = false) ?(aggressive = false) inst groups =
  let describe =
    Printf.sprintf "grouped%s%s"
      (if backfill then "+backfill" else "")
      (if aggressive then "+aggressive" else "")
  in
  Engine.run inst (as_policy ~backfill ~aggressive ~describe groups)

let case_policy ~case inst order =
  let groups =
    match case with
    | Base | Backfill -> Grouping.singletons order
    | Group | Group_backfill -> Grouping.deterministic inst order
  in
  check_bvn_range inst groups;
  let backfill = match case with Backfill | Group_backfill -> true | _ -> false in
  as_policy ~backfill
    ~describe:(if backfill then "grouped+backfill" else "grouped")
    groups

let run ?(case = Group) inst order = Engine.run inst (case_policy ~case inst order)

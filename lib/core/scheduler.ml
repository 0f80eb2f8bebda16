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
}

type state = {
  groups : int array array;
  suffix : int array array;
      (* suffix.(u): coflows after group u in schedule order — the backfill
         candidates *)
  mutable current : int; (* group index *)
  mutable queue : ((int * int) array * int ref * int) list;
      (* remaining BvN matchings of the active group: (matching, remaining
         slot budget, initial budget) — the initial budget tells a first use
         apart from a reuse *)
  mutable matchings_built : int;
  mutable matchings_reused : int;
}

(* suffix.(u) = concatenation of groups after u, in order. *)
let build_suffixes groups =
  let n_groups = Array.length groups in
  let suffix = Array.make (max 1 n_groups) [||] in
  for u = n_groups - 2 downto 0 do
    suffix.(u) <- Array.append groups.(u + 1) suffix.(u + 1)
  done;
  suffix

let make_state groups =
  { groups;
    suffix = build_suffixes groups;
    current = 0;
    queue = [];
    matchings_built = 0;
    matchings_reused = 0;
  }

let group_complete sim group =
  Array.for_all (fun k -> Simulator.is_complete sim k) group

let group_released sim group =
  Array.for_all (fun k -> Simulator.released sim k) group

(* Aggregate remaining demand of a group: O(group nonzeros), never
   O(ports^2). *)
let aggregate_remaining sim group =
  let d = Mat.make (Simulator.ports sim) in
  Array.iter
    (fun k ->
      Simulator.iter_remaining sim k (fun i j v -> Mat.add_entry d i j v))
    group;
  d

(* Owner of every pair of [matching]: for pair (i, j), the first coflow
   (group first, then — with [backfill] — the suffix) in priority order
   that is released and still owes (i, j).  Pair assignments are
   independent, so this coflow-major bitset sweep picks exactly what a
   per-pair first-owner scan picks, at O(candidates * words) instead of
   O(pairs * candidates * log): a coflow's claimable pairs are one
   [land] of its live-row mask with the still-unclaimed sources.
   With [exclude], a (coflow, src, dst) entry already served on another
   fabric this slot is never assigned again — a concurrent matching's pair
   falls through to the next owning coflow instead.
   Returns (owner per src, dst per src, picks served from the suffix). *)
let assign_pairs ?exclude sim matching ~group ~suffix ~backfill =
  let m = Simulator.ports sim in
  let words = Bits.words_for m in
  let bpw = Bits.bits_per_word in
  let pair_dst = Array.make m (-1) in
  let owner = Array.make m (-1) in
  let unclaimed = Array.make words 0 in
  Array.iter
    (fun (i, j) ->
      pair_dst.(i) <- j;
      let w = Bits.word_of i in
      unclaimed.(w) <- unclaimed.(w) lor (1 lsl Bits.bit_of i))
    matching;
  let left = ref (Array.length matching) in
  let from_suffix = ref 0 in
  let scan ~counting cands =
    let n = Array.length cands in
    let idx = ref 0 in
    while !left > 0 && !idx < n do
      let k = cands.(!idx) in
      incr idx;
      if Simulator.released sim k then
        for w = 0 to words - 1 do
          let cand =
            ref (Simulator.remaining_live_mask sim k w land unclaimed.(w))
          in
          while !cand <> 0 do
            let b = !cand land - !cand in
            cand := !cand land lnot b;
            let i = (w * bpw) + Bits.ntz b in
            let j = pair_dst.(i) in
            if
              Simulator.remaining_row_mask sim k i (Bits.word_of j)
              land (1 lsl Bits.bit_of j)
              <> 0
              && (match exclude with
                 | Some tbl -> not (Hashtbl.mem tbl (k, i, j))
                 | None -> true)
            then begin
              owner.(i) <- k;
              unclaimed.(w) <- unclaimed.(w) land lnot b;
              decr left;
              if counting then incr from_suffix
            end
          done
        done
    done
  in
  scan ~counting:false group;
  if backfill && !left > 0 then scan ~counting:true suffix;
  (owner, pair_dst, !from_suffix)

(* Greedy maximal matching over released, unfinished coflows in priority
   order — used by backfilling policies while the next group is gated by a
   release date. *)
let greedy_fill sim candidates = Policy.greedy_matching sim ~priority:candidates

(* Work-conserving extension of backfilling (an ablation beyond the paper):
   after the BvN matching has claimed its pairs, any ports left idle are
   matched greedily against the remaining demand in priority order. *)
let aggressive_fill sim candidates transfers =
  Policy.greedy_matching ~init:transfers sim ~priority:candidates

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

(* One decision covering [n] consecutive identical slots, [1 <= n <= max_n].
   Every batch is bounded by {!Policy.skip_bound} (demand zeros and release
   boundaries) plus the active matching's remaining slot budget, so the
   transfers the slot-by-slot loop would pick at each covered slot are
   exactly these. *)
let rec slot_impl state ~backfill ~aggressive ~meta ~max_n sim =
  let n_groups = Array.length state.groups in
  (* advance past finished groups *)
  while
    state.current < n_groups
    && group_complete sim state.groups.(state.current)
  do
    state.current <- state.current + 1;
    state.queue <- []
  done;
  if state.current >= n_groups then begin
    (* Every group is done, yet the simulator may still hold unfinished
       coflows (a grouping that does not cover every coflow, or demand
       grown after grouping).  Returning [] here would idle every remaining
       slot until the budget trips; serve the leftovers greedily instead. *)
    let leftovers = Array.init (Simulator.num_coflows sim) (fun k -> k) in
    let transfers = greedy_fill sim leftovers in
    let n = Policy.skip_bound sim transfers ~max_n in
    meta.m_backfilled <- meta.m_backfilled + (n * List.length transfers);
    (transfers, n)
  end
  else begin
    let group = state.groups.(state.current) in
    if state.queue = [] then begin
      if not (group_released sim group) then begin
        (* gated by a release date *)
        if backfill then begin
          let transfers = greedy_fill sim state.suffix.(state.current) in
          let n = Policy.skip_bound sim transfers ~max_n in
          meta.m_backfilled <- meta.m_backfilled + (n * List.length transfers);
          (transfers, n)
        end
        else
          (* idle until the gating release: the classic event jump *)
          ([], Policy.skip_bound sim [] ~max_n)
      end
      else begin
        let schedule = Bvn.schedule (aggregate_remaining sim group) in
        let built = List.length schedule in
        state.matchings_built <- state.matchings_built + built;
        meta.m_built <- meta.m_built + built;
        if built > 0 then Obs.Counter.incr c_built ~by:built;
        state.queue <-
          List.map (fun (m, q) -> (Array.of_list m, ref q, q)) schedule;
        if state.queue = [] then begin
          (* The group's aggregate demand vanished even though the
             completion check above reported unfinished members (a state a
             demand-dropping fault layer or an externally stepped simulator
             can produce).  Idling here would repeat forever — the rebuild
             is deterministic — and spin until [max_slots]; advancing is
             the only progressing move. *)
          state.current <- state.current + 1;
          slot_impl state ~backfill ~aggressive ~meta ~max_n sim
        end
        else slot_impl state ~backfill ~aggressive ~meta ~max_n sim
      end
    end
    else begin
      (* Serve up to one queued matching per fabric, the head of the queue
         on the fastest fabric.  On [Net.single] exactly the head matching
         is served, as in the single-switch schedule. *)
      let forder = Net.by_rate (Simulator.net sim) in
      let kf = Array.length forder in
      let rec take n = function
        | x :: tl when n > 0 -> x :: take (n - 1) tl
        | _ -> []
      in
      let active = take kf state.queue in
      let exclude = if kf > 1 then Some (Hashtbl.create 64) else None in
      let transfers = ref [] in
      let backfill_picks = ref 0 in
      List.iteri
        (fun fi (matching, _, _) ->
          let fabric = forder.(fi) in
          let owner, pair_dst, suffix_picks =
            assign_pairs ?exclude sim matching ~group
              ~suffix:state.suffix.(state.current) ~backfill
          in
          backfill_picks := !backfill_picks + suffix_picks;
          Array.iter
            (fun (i, _) ->
              if owner.(i) >= 0 then begin
                (match exclude with
                | Some tbl ->
                  Hashtbl.replace tbl (owner.(i), i, pair_dst.(i)) ()
                | None -> ());
                transfers :=
                  { Simulator.src = i;
                    dst = pair_dst.(i);
                    coflow = owner.(i);
                    fabric;
                  }
                  :: !transfers
              end)
            matching)
        active;
      let transfers, aggressive_picks =
        if aggressive then begin
          let filled =
            aggressive_fill sim
              (Array.append group state.suffix.(state.current))
              !transfers
          in
          (filled, List.length filled - List.length !transfers)
        end
        else (!transfers, 0)
      in
      (* the batch may not outlive any active matching's slot budget — a
         rate-[v] fabric drains [v] budget units per slot *)
      let budget_cap =
        List.fold_left
          (fun (fi, acc) (_, q, _) ->
            let rate = Simulator.fabric_rate sim forder.(fi) in
            (fi + 1, min acc ((!q + rate - 1) / rate)))
          (0, max_n) active
        |> snd
      in
      let n = Policy.skip_bound sim transfers ~max_n:budget_cap in
      (* of the [n] covered slots, every one except a first use of a
         fresh matching is a reuse — exactly what the slot-by-slot loop
         counts one call at a time *)
      List.iteri
        (fun fi (_, q, q0) ->
          let rate = Simulator.fabric_rate sim forder.(fi) in
          let reuses = n - (if !q = q0 then 1 else 0) in
          if reuses > 0 then begin
            state.matchings_reused <- state.matchings_reused + reuses;
            meta.m_reused <- meta.m_reused + reuses;
            Obs.Counter.incr c_reused ~by:reuses
          end;
          q := max 0 (!q - (n * rate)))
        active;
      meta.m_backfilled <-
        meta.m_backfilled + (n * (!backfill_picks + aggressive_picks));
      state.queue <- List.filter (fun (_, q, _) -> !q > 0) state.queue;
      (transfers, n)
    end
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
          (if state.current < Array.length state.groups then state.current
           else -1);
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
          if state.current < Array.length state.groups then state.current
          else -1 );
        ("built", meta.m_built);
        ("backfilled", meta.m_backfilled);
      ];
  (transfers, n)

let next_slot state ~backfill ?(aggressive = false) sim =
  fst (next_slot_batched state ~backfill ~aggressive ~max_n:1 sim)

let policy ?(backfill = false) ?(aggressive = false) _inst groups =
  let state = make_state groups in
  fun sim -> next_slot state ~backfill ~aggressive sim

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

let run_grouped ?(backfill = false) ?(aggressive = false) ?batch inst groups =
  let describe =
    Printf.sprintf "grouped%s%s"
      (if backfill then "+backfill" else "")
      (if aggressive then "+aggressive" else "")
  in
  Engine.run ?batch inst (as_policy ~backfill ~aggressive ~describe groups)

let case_policy ~case inst order =
  let groups =
    match case with
    | Base | Backfill -> Grouping.singletons order
    | Group | Group_backfill -> Grouping.deterministic inst order
  in
  let backfill = match case with Backfill | Group_backfill -> true | _ -> false in
  as_policy ~backfill
    ~describe:(if backfill then "grouped+backfill" else "grouped")
    groups

let run ?(case = Group) ?batch inst order =
  Engine.run ?batch inst (case_policy ~case inst order)

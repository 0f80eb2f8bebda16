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

(* Per-run buffers of the replay, made on first use: the owner index and
   the owner position per source of [owners], the cross-fabric dedupe
   table, the identity order the leftover path scans, the live views of
   the two greedy slices, and what the last decision leaves for its
   accounting, which waits for the slots the simulator commits it for.
   Never a global: the engine runs steppers on several domains.

   The owner index lists, for every pair (i, j) at [i * m + j], the
   positions in [order] of the coflows that held demand on it when the
   index was built, ascending: [at.(first.(q)) .. at.(first.(q+1) - 1)].
   Supports only shrink between two equal [Simulator.grown_entries]
   readings, so the list stays a superset of the pair's owners; the
   entries before [cursor.(q)] have drained for good. *)
type scratch = {
  mutable keyed : Simulator.t option; (* the simulator the index reads *)
  mutable grown : int; (* its [Simulator.grown_entries] at the build *)
  mutable first : int array;
  mutable at : int array;
  mutable cursor : int array;
  mutable owner : int array;
  taken : (int, unit) Hashtbl.t;
  mutable ids : int array;
  suffix_view : Policy.live_view;
  fill_view : Policy.live_view;
  mutable d_slot : int; (* the clock the last decision was taken at *)
  mutable d_transfers : Simulator.transfer list;
  mutable d_built : int; (* the matchings it built *)
  mutable d_picks : int; (* its backfill transfers, in each covered slot *)
  mutable d_forder : int array;
      (* the fabrics of the queued matchings it served, fastest first;
         [[||]] for none *)
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
      { keyed = None;
        grown = 0;
        first = [||];
        at = [||];
        cursor = [||];
        owner = [||];
        taken = Hashtbl.create 16;
        ids = [||];
        suffix_view = Policy.live_view ();
        fill_view = Policy.live_view ();
        d_slot = 0;
        d_transfers = [];
        d_built = 0;
        d_picks = 0;
        d_forder = [||];
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

(* Build the owner index from [sim]'s supports: count each pair's
   entries, lay the pairs out by prefix sums, then list the positions in
   ascending order; every cursor starts at its pair's first entry.
   O(coflows * ports * words + nonzeros), once per run and after each
   growth of a support. *)
let build_index state sim =
  let sc = state.scratch and m = Simulator.ports sim in
  let pairs = m * m in
  let first = Array.make (pairs + 1) 0 in
  Array.iter
    (fun k ->
      Simulator.iter_remaining sim k (fun i j _ ->
          let q = (i * m) + j + 1 in
          first.(q) <- first.(q) + 1))
    state.order;
  for q = 1 to pairs do
    first.(q) <- first.(q) + first.(q - 1)
  done;
  let at = Array.make first.(pairs) 0 and fill = Array.sub first 0 pairs in
  Array.iteri
    (fun p k ->
      Simulator.iter_remaining sim k (fun i j _ ->
          let q = (i * m) + j in
          at.(fill.(q)) <- p;
          fill.(q) <- fill.(q) + 1))
    state.order;
  sc.first <- first;
  sc.at <- at;
  sc.cursor <- Array.sub first 0 pairs;
  if Array.length sc.owner <> m then sc.owner <- Array.make m (-1);
  sc.keyed <- Some sim;
  sc.grown <- Simulator.grown_entries sim

(* whether coflow [k] still owes pair (i, j): one demand check *)
let holds sim k i j =
  Simulator.remaining_row_mask sim k i (Bits.word_of j)
  land (1 lsl Bits.bit_of j)
  <> 0

let c_owner_checks = Obs.Counter.make "sched.owner_checks"

let untaken _ _ _ = false

(* Owner of every pair of the perfect [matching] (destination per source):
   for pair (i, matching.(i)), the first coflow of order.[lo, hi) — the
   group, then with backfill its suffix — that is released, still owes the
   pair and is not [taken] (on a multi-fabric net, the entries an earlier
   fabric serves this slot).  The pair's index entries are walked from its
   cursor, which first moves past the entries below [hi] that have
   drained: what is left is the pair's possible owners, in [order].  An
   entry at or past [hi] ends the walk unchecked.  Writes the owner's
   position in [order] per source, -1 for none, into the scratch and
   returns it; allocates nothing once the index is built. *)
let owners state sim matching ~lo ~hi ~taken =
  let sc = state.scratch in
  (match sc.keyed with
  | Some s when s == sim && sc.grown = Simulator.grown_entries sim -> ()
  | _ -> build_index state sim);
  let m = Simulator.ports sim and order = state.order in
  let { first; at; cursor; owner; _ } = sc in
  let checks = ref 0 in
  for i = 0 to m - 1 do
    let j = matching.(i) in
    let q = (i * m) + j in
    let stop = first.(q + 1) in
    let c = ref cursor.(q) in
    while
      !c < stop
      && at.(!c) < hi
      && begin
           incr checks;
           not (holds sim order.(at.(!c)) i j)
         end
    do
      incr c
    done;
    cursor.(q) <- !c;
    (* an entry at the cursor below [hi] still holds; the later ones are
       checked when reached *)
    let o = ref (-1) and e = ref !c in
    while !o < 0 && !e < stop && at.(!e) < hi do
      let p = at.(!e) in
      if p >= lo then begin
        let k = order.(p) in
        if
          Simulator.released sim k
          && (!e = !c
             || begin
                  incr checks;
                  holds sim k i j
                end)
          && not (taken k i j)
        then o := p
      end;
      incr e
    done;
    owner.(i) <- !o
  done;
  Obs.Counter.incr c_owner_checks ~by:!checks;
  owner

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

let c_built = Obs.Counter.make "sched.matchings_built"

let c_reused = Obs.Counter.make "sched.matchings_reused"

let c_backfilled = Obs.Counter.make "sched.backfilled_units"

(* Greedy over live candidates — the leftovers, or the suffix while a group
   is gated by a release: every transfer is backfill, and nothing of the
   scheduler's own ends the batch. *)
let greedy_slot sim sc ~max_n live =
  let transfers = Policy.greedy_matching sim ~priority:live in
  sc.d_picks <- List.length transfers;
  (transfers, max_n)

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

(* One decision: its transfers and the scheduler's own cap, [max_n] or
   the served matchings' remaining slot budget.  Within the cap the
   simulator stops the batch at demand zeros and release boundaries, so
   the transfers the slot-by-slot loop would pick at each covered slot
   are exactly these. *)
let rec slot_impl state ~backfill ~aggressive ~max_n sim =
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
    greedy_slot sim sc ~max_n
      (Policy.live_slice sc.suffix_view sim sc.ids ~pos:0)
  end
  else begin
    let u = state.current in
    match state.queue with
    | [] ->
      if not (group_all state u (Simulator.released sim)) then begin
        (* gated by a release date *)
        if backfill then
          greedy_slot sim sc ~max_n
            (Policy.live_slice sc.suffix_view sim state.order
               ~pos:state.start.(u + 1))
        else
          (* idle until the gating release: the simulator's release
             bound makes it the classic event jump *)
          ([], max_n)
      end
      else begin
        let schedule = Bvn.schedule (aggregate_remaining sim state u) in
        let built = List.length schedule in
        state.matchings_built <- state.matchings_built + built;
        sc.d_built <- sc.d_built + built;
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
        slot_impl state ~backfill ~aggressive ~max_n sim
      end
    | queue ->
      (* Serve up to one queued matching per fabric, the head of the queue
         on the fastest fabric.  On [Net.single] exactly the head matching
         is served, as in the single-switch schedule. *)
      let net = Simulator.net sim in
      let forder = Net.by_rate net in
      let kf = Array.length forder in
      let m = Simulator.ports sim in
      if Array.length state.spent < kf then state.spent <- Array.make kf 0;
      let taken =
        if kf = 1 then untaken
        else begin
          Hashtbl.clear sc.taken;
          fun k i j -> Hashtbl.mem sc.taken ((((k * m) + i) * m) + j)
        end
      in
      let mid = state.start.(u + 1) in
      let hi = if backfill then Array.length state.order else mid in
      let transfers = ref [] and backfill_picks = ref 0 in
      let budget_cap = ref max_n in
      let rec serve fi = function
        | (matching, q) :: tl when fi < kf ->
          let fabric = forder.(fi) in
          let owner = owners state sim matching ~lo:state.start.(u) ~hi ~taken in
          cap_core state net ~fabric matching ~mid ~m;
          for i = 0 to m - 1 do
            let p = owner.(i) in
            if p >= 0 then begin
              let k = state.order.(p) and j = matching.(i) in
              if p >= mid then incr backfill_picks;
              if kf > 1 then
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
      sc.d_picks <- !backfill_picks + aggressive_picks;
      sc.d_forder <- forder;
      (transfers, !budget_cap)
  end

let decide state ~backfill ~aggressive ~max_n sim =
  let sc = state.scratch in
  sc.d_slot <- Simulator.now sim;
  sc.d_built <- 0;
  sc.d_picks <- 0;
  sc.d_forder <- [||];
  let ((transfers, _) as decision) =
    slot_impl state ~backfill ~aggressive ~max_n sim
  in
  sc.d_transfers <- transfers;
  decision

(* The last decision's accounting, once the simulator has committed it
   for [n] slots, folded into the state, the obs counters and the
   slot-event stream: of the covered slots, every one except a first use
   of a fresh matching is a reuse, and the backfill picks repeat in each
   — exactly what the slot-by-slot loop counts one call at a time. *)
let account state sim n =
  let sc = state.scratch in
  let forder = sc.d_forder in
  let kf = Array.length forder in
  let rec spend fi reused = function
    | _ :: tl when fi < kf ->
      let rate = Simulator.fabric_rate sim forder.(fi) in
      let reuses = n - (if state.spent.(fi) = 0 then 1 else 0) in
      state.spent.(fi) <- state.spent.(fi) + (n * rate);
      spend (fi + 1) (reused + reuses) tl
    | _ -> reused
  in
  let reused = spend 0 0 state.queue in
  if kf > 0 then drop_exhausted state kf;
  if reused > 0 then begin
    state.matchings_reused <- state.matchings_reused + reused;
    Obs.Counter.incr c_reused ~by:reused
  end;
  let backfilled = n * sc.d_picks in
  if backfilled > 0 then Obs.Counter.incr c_backfilled ~by:backfilled;
  let active_group =
    if state.current < group_count state then state.current else -1
  in
  if Obs.Events.enabled () then
    Obs.Events.record
      { Obs.Events.slot = sc.d_slot;
        transfers = List.length sc.d_transfers;
        active_group;
        built = sc.d_built;
        reused;
        backfilled;
      };
  if Obs.Trace.enabled () then
    (* which group was being cleared while other coflows waited, and how
       much of the slot was backfill — read next to the per-coflow "wait"
       tracks the simulator emits *)
    Obs.Trace.counter ~name:"sched" ~slot:sc.d_slot
      [ ("active_group", active_group);
        ("built", sc.d_built);
        ("backfilled", backfilled);
      ]

let next_slot state ~backfill ?(aggressive = false) sim =
  let transfers, _ = decide state ~backfill ~aggressive ~max_n:1 sim in
  account state sim 1;
  transfers

let as_policy ?(backfill = false) ?(aggressive = false) ~describe groups =
  Policy.make ~describe (fun sim ->
      let state = make_state groups in
      { Policy.next_slot = next_slot state ~backfill ~aggressive;
        next_batch =
          Some
            (fun sim ~max_n -> decide state ~backfill ~aggressive ~max_n sim);
        committed = account state sim;
        matchings = (fun () -> state.matchings_built);
      })

(* BvN augments a group's aggregate demand to a matrix whose rows and
   columns all sum to its load, a total of ports x load: refuse a group
   whose load passes [max_int / ports] before any slot is scheduled,
   instead of failing inside [Bvn] mid-run. *)
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

open Switchsim

type stepper = {
  next_slot : Simulator.t -> Simulator.transfer list;
  next_batch :
    (Simulator.t -> max_n:int -> Simulator.transfer list * int) option;
  committed : int -> unit;
  matchings : unit -> int;
}

type t = {
  describe : string;
  prepare : Simulator.t -> stepper;
}

let stepper ?next_batch ?(matchings = fun () -> 0) next_slot =
  { next_slot; next_batch; committed = ignore; matchings }

let make ~describe prepare = { describe; prepare }

let describe t = t.describe

let stateless ~describe next_slot =
  { describe; prepare = (fun _ -> stepper next_slot) }

let unbatched p =
  { p with prepare = (fun sim -> { (p.prepare sim) with next_batch = None }) }

(* A per-slot decision is one slot when it is taken; a batched one is
   added once the simulator has sized it. *)
let recorded log p =
  { p with
    prepare =
      (fun sim ->
        let st = p.prepare sim in
        let last = ref [] in
        { st with
          next_slot =
            (fun sim ->
              let transfers = st.next_slot sim in
              Recorder.add log transfers ~slots:1;
              transfers);
          next_batch =
            Option.map
              (fun next_batch sim ~max_n ->
                let ((transfers, _) as decision) = next_batch sim ~max_n in
                last := transfers;
                decision)
              st.next_batch;
          committed =
            (fun slots ->
              Recorder.add log !last ~slots;
              st.committed slots);
        });
  }

(* The greedy maximal matching every order-respecting policy is built on:
   scan coflows in priority order, claim still-free port pairs from their
   remaining demand.  [init] seeds the claimed ports (work-conserving
   top-ups extend a partial slot); new transfers are consed onto it.

   The sweep runs once per fabric, fastest first ([Net.by_rate]), so the
   head of the priority order lands on the fastest links; each fabric has
   its own free-port bitsets and (when oversubscribed) its own core
   budget, and the same (coflow, src, dst) entry is never claimed on two
   fabrics in one slot.  On [Net.single] this is exactly the classic
   single-switch sweep. *)
let c_visited = Obs.Counter.make "policy.coflows_visited"

(* how many of [transfers] spend a fault plan's pooled core budget *)
let rec pooled_spend net acc = function
  | [] -> acc
  | { Simulator.src; dst; fabric; _ } :: rest ->
    pooled_spend net
      (if Faults.Fault_plan.core_counts net ~fabric ~src ~dst then acc + 1
       else acc)
      rest

(* An empty pool admits no transfer that spends it: a fabric without a
   core cap loses every destination, the others keep rack-local pairs
   only, exactly as when their own budget is spent. *)
let close_pool net ~words ~m free_dst n_dst core_left =
  for f = 0 to Net.k net - 1 do
    if core_left.(f) = max_int then begin
      Array.fill free_dst (f * words) words 0;
      n_dst.(f) <- m
    end
    else core_left.(f) <- 0
  done

(* a word with the bits below [n] set, for any [n] *)
let below n =
  if n <= 0 then 0
  else if n >= Matrix.Bits.bits_per_word then -1
  else Matrix.Bits.low_mask n

let greedy_matching ?(init = []) ?faults sim ~priority =
  let m = Simulator.ports sim in
  let net = Simulator.net sim in
  let kf = Simulator.num_fabrics sim in
  let words = Matrix.Bits.words_for m in
  let bpw = Matrix.Bits.bits_per_word in
  (* free ports as bitsets: word w starts with every valid bit set;
     fabric f's word w lives at [f * words + w] *)
  let free_src =
    Array.init (kf * words) (fun i ->
        Matrix.Bits.low_mask (min bpw (m - (i mod words * bpw))))
  in
  let free_dst = Array.copy free_src in
  let n_src = Array.make kf 0 and n_dst = Array.make kf 0 in
  (* per-fabric inter-rack budget; [max_int] marks a non-blocking fabric *)
  let core_left =
    Array.init kf (fun f ->
        match Net.core_capacity net f with None -> max_int | Some c -> c)
  in
  (* cross-fabric dedupe of (coflow, src, dst), keyed by one int; only
     needed when k > 1 *)
  let taken = if kf > 1 then Some (Hashtbl.create 64) else None in
  let key k i j = (((k * m) + i) * m) + j in
  let claim f k i j =
    let ws = (f * words) + Matrix.Bits.word_of i
    and wd = (f * words) + Matrix.Bits.word_of j in
    let bs = 1 lsl Matrix.Bits.bit_of i and bd = 1 lsl Matrix.Bits.bit_of j in
    if free_src.(ws) land bs <> 0 then begin
      free_src.(ws) <- free_src.(ws) lxor bs;
      n_src.(f) <- n_src.(f) + 1
    end;
    if free_dst.(wd) land bd <> 0 then begin
      free_dst.(wd) <- free_dst.(wd) lxor bd;
      n_dst.(f) <- n_dst.(f) + 1
    end;
    if core_left.(f) <> max_int && Net.crosses_core net ~fabric:f ~src:i ~dst:j
    then core_left.(f) <- core_left.(f) - 1;
    match taken with
    | Some tbl -> Hashtbl.replace tbl (key k i j) ()
    | None -> ()
  in
  List.iter
    (fun { Simulator.src; dst; coflow; fabric } -> claim fabric coflow src dst)
    init;
  (* Under a fault plan the plan's state is folded into the claims before
     the scan: down ports start out claimed, a dead fabric has every port
     claimed, and one pooled budget sits on top of the per-fabric ones
     ([close_pool] once it is spent).  Without a plan the pool is
     [max_int] and never read again. *)
  let pool = ref max_int in
  (match faults with
  | None -> ()
  | Some st ->
    Faults.Fault_plan.refresh st ~slot:(Simulator.now sim);
    for f = 0 to kf - 1 do
      let dead = Faults.Fault_plan.fabric_dead st f in
      for w = 0 to words - 1 do
        let up = if dead then 0 else Faults.Fault_plan.port_up_word st w in
        let fw = (f * words) + w in
        n_src.(f) <-
          n_src.(f) + Matrix.Bits.popcount (free_src.(fw) land lnot up);
        n_dst.(f) <-
          n_dst.(f) + Matrix.Bits.popcount (free_dst.(fw) land lnot up);
        free_src.(fw) <- free_src.(fw) land up;
        free_dst.(fw) <- free_dst.(fw) land up
      done
    done;
    pool := Faults.Fault_plan.core_budget st - pooled_spend net 0 init;
    if !pool <= 0 then close_pool net ~words ~m free_dst n_dst core_left);
  (* The scan claims at most one pair per (coflow, src) row per fabric —
     a claimed source blocks the rest of its row — and works wholesale on
     bitset words: a coflow's candidate sources are
     [live_rows land free_src] (one [land] per word covers 62 ports), and
     a row's destination is the lowest set bit of
     [row_support land free_dst].  The dev build compiles every module
     opaquely, so no call across modules is inlined; the calls are
     therefore as coarse as the fabric allows.

     On an unrestricted fabric — one fabric, no core cap, no fault plan —
     every candidate row probes [free_dst] itself, so a coflow's whole
     sweep is one [Simulator.claim_rows] call: [Mat]'s kernel walks the
     candidate rows, claims each row's lowest free destination in both
     masks and leaves the pairs in the simulator's [claims] buffer, which
     become transfers in claim order.  Every greedy run on the paper's
     single switch takes this path.

     Otherwise each candidate row is one [Simulator.remaining_first_dst]
     probe.  A row is restricted when this fabric's core budget is spent
     (only the source's rack stays admissible: rack-local pairs can never
     be starved by the budget), under a fault plan (its off-duty links
     are masked out) or on k > 1 fabrics (an entry already taken on a
     faster fabric is skipped).  Its probe reads [scratch], filled with
     [free_dst] narrowed to the rack and stripped of off-duty links; a
     taken hit clears its bit there and probes again.  A capped fabric
     with budget left probes [free_dst] directly, row by row, because
     each claim may spend the budget the next row is checked against.

     Lowest-bit iteration is exactly ascending row / ascending column
     order, so the result is the very matching the naive entry-by-entry
     greedy scan produces.  Once every src (or every dst) of a fabric is
     claimed no later coflow can add a transfer there and the scan moves
     to the next fabric.

     Every loop below keeps its state in local ints: no closure, captured
     ref or tuple is built per coflow or per candidate, so a call
     allocates the returned transfers and the O(k * words) scratch
     above, nothing else. *)
  let masked = match faults with Some _ -> true | None -> kf > 1 in
  let scratch = Array.make words 0 in
  let transfers = ref init and visited = ref 0 in
  let order = Net.by_rate net in
  for o = 0 to kf - 1 do
    let f = order.(o) in
    let fw = f * words in
    let rack =
      match (Net.fabric_of net f).Net.rack_size with Some rs -> rs | None -> m
    in
    let whole = (not masked) && core_left.(f) = max_int in
    let p = ref 0 in
    while !p < Array.length priority && n_src.(f) < m && n_dst.(f) < m do
      let k = priority.(!p) in
      incr p;
      let live =
        Simulator.released sim k && not (Simulator.is_complete sim k)
      in
      if live && whole then begin
        let n = Simulator.claim_rows sim k ~free_src ~free_dst ~off:fw in
        let claims = Simulator.claims sim in
        n_src.(f) <- n_src.(f) + n;
        n_dst.(f) <- n_dst.(f) + n;
        for c = 0 to n - 1 do
          transfers :=
            { Simulator.src = claims.(2 * c);
              dst = claims.((2 * c) + 1);
              coflow = k;
              fabric = f;
            }
            :: !transfers
        done
      end
      else if live then
        for w = 0 to words - 1 do
          (* candidate srcs: rows with demand whose port is free.  Claims
             inside this word only ever clear the bit being iterated, so
             the snapshot stays valid. *)
          let cand =
            ref (Simulator.remaining_live_mask sim k w land free_src.(fw + w))
          in
          while !cand <> 0 do
            let b = !cand land - !cand in
            cand := !cand lxor b;
            let i = (w * bpw) + Matrix.Bits.ntz b in
            let j =
              if core_left.(f) > 0 && not masked then
                Simulator.remaining_first_dst sim k i ~avail:free_dst ~off:fw
              else begin
                (* admissible dsts [lo, hi): the whole row, or the
                   source's rack once the core budget is spent *)
                let lo = if core_left.(f) > 0 then 0 else i / rack * rack in
                let hi = if core_left.(f) > 0 then m else min m (lo + rack) in
                for w2 = 0 to words - 1 do
                  let base = w2 * bpw in
                  let off_duty =
                    match faults with
                    | None -> 0
                    | Some st -> Faults.Fault_plan.off_duty_word st ~src:i w2
                  in
                  scratch.(w2) <-
                    free_dst.(fw + w2)
                    land below (hi - base)
                    land lnot (below (lo - base) lor off_duty)
                done;
                let j =
                  ref
                    (Simulator.remaining_first_dst sim k i ~avail:scratch
                       ~off:0)
                in
                (match taken with
                | None -> ()
                | Some tbl ->
                  while !j >= 0 && Hashtbl.mem tbl (key k i !j) do
                    let w2 = Matrix.Bits.word_of !j in
                    scratch.(w2) <-
                      scratch.(w2) lxor (1 lsl Matrix.Bits.bit_of !j);
                    j :=
                      Simulator.remaining_first_dst sim k i ~avail:scratch
                        ~off:0
                  done);
                !j
              end
            in
            if j >= 0 then begin
              claim f k i j;
              if
                !pool <> max_int
                && Faults.Fault_plan.core_counts net ~fabric:f ~src:i ~dst:j
              then begin
                decr pool;
                if !pool = 0 then
                  close_pool net ~words ~m free_dst n_dst core_left
              end;
              transfers :=
                { Simulator.src = i; dst = j; coflow = k; fabric = f }
                :: !transfers
            end
          done
        done
    done;
    visited := !visited + !p
  done;
  Obs.Counter.incr c_visited ~by:!visited;
  !transfers

(* The released, unfinished entries of a priority slice, in order: the
   only coflows a greedy decision can serve, so deciding over them gives
   the same transfers as deciding over the whole slice.  The view is
   rebuilt, in O(slice), only when the slice (the array, physically, and
   its start) or the simulator's released or unfinished count has moved
   since the last call.  The released set only grows and the unfinished
   set only shrinks ([set_release] moves only unreleased coflows and never
   before [now]; [add_demand] refuses finished ones), so equal counts mean
   equal sets: for a fixed slice the rebuild runs once per release or
   completion event, never per decision. *)
type live_view = {
  mutable src : int array; (* the slice at the last rebuild *)
  mutable pos : int; (* -1 before the first rebuild *)
  mutable released : int;
  mutable unfinished : int;
  mutable live : int array;
}

let live_view () =
  { src = [||]; pos = -1; released = -1; unfinished = -1; live = [||] }

let live_slice v sim priority ~pos =
  let released = Simulator.released_count sim
  and unfinished = Simulator.unfinished_count sim in
  if
    priority != v.src || pos <> v.pos || released <> v.released
    || unfinished <> v.unfinished
  then begin
    let is_live k =
      Simulator.released sim k && not (Simulator.is_complete sim k)
    in
    let count = ref 0 in
    for p = pos to Array.length priority - 1 do
      if is_live priority.(p) then incr count
    done;
    let live = Array.make !count 0 and n = ref 0 in
    for p = pos to Array.length priority - 1 do
      let k = priority.(p) in
      if is_live k then begin
        live.(!n) <- k;
        incr n
      end
    done;
    v.src <- priority;
    v.pos <- pos;
    v.released <- released;
    v.unfinished <- unfinished;
    v.live <- live
  end;
  v.live

let of_priority ~describe priority =
  { describe;
    prepare =
      (fun _ ->
        let v = live_view () in
        let decide sim =
          greedy_matching sim ~priority:(live_slice v sim priority ~pos:0)
        in
        stepper ~next_batch:(fun sim ~max_n -> (decide sim, max_n)) decide);
  }

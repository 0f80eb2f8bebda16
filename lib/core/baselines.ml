open Workload
open Switchsim

(* All baselines are Engine policies; the order-respecting ones share
   {!Policy.greedy_matching} and differ only in how the priority is
   produced each slot. *)

let greedy_policy order = Policy.of_priority ~describe:"greedy" order

let round_robin_policy n =
  Policy.make ~describe:"round-robin" (fun _sim ->
      let offset = ref 0 in
      Policy.stepper (fun sim ->
          let priority = Array.init n (fun i -> (i + !offset) mod n) in
          incr offset;
          Policy.greedy_matching sim ~priority))

(* MaxWeight: exact maximum-weight matching per slot. *)
let max_weight_policy ~weights =
  Policy.stateless ~describe:"max-weight" (fun s ->
      let n = Simulator.num_coflows s in
      let m = Simulator.ports s in
      let w = Array.make_matrix m m 0.0 in
      let best = Array.make_matrix m m (-1) in
      for k = 0 to n - 1 do
        if Simulator.released s k && not (Simulator.is_complete s k) then begin
          let urgency =
            weights.(k) /. float_of_int (max 1 (Simulator.remaining_total s k))
          in
          Simulator.iter_remaining s k (fun i j _ ->
              if urgency > w.(i).(j) then begin
                w.(i).(j) <- urgency;
                best.(i).(j) <- k
              end)
        end
      done;
      let pairs, _ = Matching.Hungarian.max_weight_matching w in
      List.map
        (fun (i, j) ->
          { Simulator.src = i; dst = j; coflow = best.(i).(j); fabric = 0 })
        pairs)

(* Varys-style SEBF + MADD, discretised via per-pair credits. *)
let sebf_madd_policy ~coflows:n =
  Policy.make ~describe:"sebf+madd" (fun sim ->
      let m = Simulator.ports sim in
      let credit = Array.make (n * m * m) 0.0 in
      Policy.stepper (fun s ->
          (* SEBF: active coflows by smallest remaining bottleneck *)
          let active = ref [] in
          for k = n - 1 downto 0 do
            if Simulator.released s k && not (Simulator.is_complete s k) then
              active := k :: !active
          done;
          let keyed =
            List.map (fun k -> (Simulator.remaining_load s k, k)) !active
          in
          let order = List.map snd (List.sort compare keyed) in
          (* MADD rates: flow (i, j) of the head coflow paced at
             rem_ij / gamma, later coflows backfill what capacity is left *)
          let cap_in = Array.make m 1.0 and cap_out = Array.make m 1.0 in
          List.iter
            (fun k ->
              let gamma = float_of_int (Simulator.remaining_load s k) in
              if gamma > 0.0 then
                Simulator.iter_remaining s k (fun i j v ->
                    let want = float_of_int v /. gamma in
                    let rate = min want (min cap_in.(i) cap_out.(j)) in
                    if rate > 0.0 then begin
                      cap_in.(i) <- cap_in.(i) -. rate;
                      cap_out.(j) <- cap_out.(j) -. rate;
                      let idx = (k * m * m) + (i * m) + j in
                      credit.(idx) <- credit.(idx) +. rate
                    end))
            order;
          (* realise the fluid plan: serve a greedy matching by decreasing
             accumulated credit *)
          let candidates = ref [] in
          List.iter
            (fun k ->
              Simulator.iter_remaining s k (fun i j _ ->
                  let idx = (k * m * m) + (i * m) + j in
                  if credit.(idx) > 0.0 then
                    candidates := (credit.(idx), k, i, j) :: !candidates))
            order;
          let sorted =
            List.sort (fun (a, _, _, _) (b, _, _, _) -> Float.compare b a)
              !candidates
          in
          let src_used = Array.make m false and dst_used = Array.make m false in
          (* fabric 0's inter-rack budget, [max_int] when non-blocking: once
             it is spent only rack-local pairs pass, as in the top-up *)
          let net = Simulator.net s in
          let core_left =
            ref (Option.value ~default:max_int (Net.core_capacity net 0))
          in
          let transfers = ref [] in
          List.iter
            (fun (_, k, i, j) ->
              let crosses =
                !core_left <> max_int
                && Net.crosses_core net ~fabric:0 ~src:i ~dst:j
              in
              let blocked =
                src_used.(i) || dst_used.(j) || (crosses && !core_left = 0)
              in
              if not blocked then begin
                if crosses then decr core_left;
                src_used.(i) <- true;
                dst_used.(j) <- true;
                let idx = (k * m * m) + (i * m) + j in
                credit.(idx) <- credit.(idx) -. 1.0;
                transfers :=
                  { Simulator.src = i; dst = j; coflow = k; fabric = 0 }
                  :: !transfers
              end)
            sorted;
          (* work conservation: top up with order-respecting greedy on pairs
             the credit plan left idle *)
          Policy.greedy_matching ~init:!transfers s
            ~priority:(Array.of_list order)))

let greedy inst order = Engine.run inst (greedy_policy order)

let fifo inst = greedy inst (Ordering.arrival inst)

let round_robin inst =
  Engine.run inst (round_robin_policy (Instance.num_coflows inst))

let max_weight inst =
  Engine.run inst (max_weight_policy ~weights:(Instance.weights inst))

let sebf_madd inst =
  Engine.run inst (sebf_madd_policy ~coflows:(Instance.num_coflows inst))

open Matrix
open Workload
open Core

let optimal_twct ?(max_nodes = 20_000_000) inst =
  let m = Instance.ports inst in
  let n = Instance.num_coflows inst in
  if m > 4 then invalid_arg "Brute.optimal_twct: too many ports";
  if Instance.total_units inst > 24 then
    invalid_arg "Brute.optimal_twct: too many data units";
  if n = 0 then 0.0
  else begin
    let coflows = Instance.coflows inst in
    let w = Instance.weights inst in
    let rel = Instance.releases inst in
    (* remaining demand, flattened as rem.(k * m * m + i * m + j) *)
    let rem = Array.make (n * m * m) 0 in
    Array.iteri
      (fun k c ->
        Mat.iter_nonzero
          (fun i j v -> rem.((k * m * m) + (i * m) + j) <- v)
          c.Instance.demand)
      coflows;
    let left = Array.map (fun c -> Mat.total c.Instance.demand) coflows in
    let unfinished0 = Array.fold_left (fun a l -> if l > 0 then a + 1 else a) 0 left in
    (* incumbent: the paper's algorithm plus a greedy run *)
    let seed =
      let o = Ordering.by_load_over_weight inst in
      min
        (Scheduler.run ~case:Scheduler.Group_backfill inst o).Scheduler.twct
        (Baselines.greedy inst o).Scheduler.twct
    in
    let best = ref seed in
    let nodes = ref 0 in
    let rho_rem k =
      let best = ref 0 in
      for i = 0 to m - 1 do
        let r = ref 0 and c = ref 0 in
        for j = 0 to m - 1 do
          r := !r + rem.((k * m * m) + (i * m) + j);
          c := !c + rem.((k * m * m) + (j * m) + i)
        done;
        if !r > !best then best := !r;
        if !c > !best then best := !c
      done;
      !best
    in
    let lower_bound t done_cost =
      let acc = ref done_cost in
      for k = 0 to n - 1 do
        if left.(k) > 0 then
          acc :=
            !acc +. (w.(k) *. float_of_int (max t rel.(k) + rho_rem k))
      done;
      !acc
    in
    let rec slot t done_cost unfinished =
      if unfinished = 0 then begin
        if done_cost < !best then best := done_cost
      end
      else begin
        incr nodes;
        if !nodes > max_nodes then
          failwith "Brute.optimal_twct: node budget exhausted";
        if lower_bound t done_cost < !best -. 1e-9 then begin
          (* if nothing is released yet, fast-forward to the next release *)
          let any_ready = ref false and next_rel = ref max_int in
          for k = 0 to n - 1 do
            if left.(k) > 0 then
              if rel.(k) <= t then any_ready := true
              else if rel.(k) < !next_rel then next_rel := rel.(k)
          done;
          if not !any_ready then slot !next_rel done_cost unfinished
          else begin
            let dst_used = Array.make m false in
            let src_used = Array.make m false in
            let transfers = ref [] in
            let serveable i j =
              let rec scan k =
                if k >= n then false
                else if
                  rel.(k) <= t && rem.((k * m * m) + (i * m) + j) > 0
                then true
                else scan (k + 1)
              in
              scan 0
            in
            let maximal () =
              let ok = ref true in
              for i = 0 to m - 1 do
                if not src_used.(i) then
                  for j = 0 to m - 1 do
                    if (not dst_used.(j)) && serveable i j then ok := false
                  done
              done;
              !ok
            in
            let commit () =
              (* apply transfers, recurse into the next slot, undo *)
              let finished_now = ref [] in
              List.iter
                (fun (i, j, k) ->
                  rem.((k * m * m) + (i * m) + j) <-
                    rem.((k * m * m) + (i * m) + j) - 1;
                  left.(k) <- left.(k) - 1;
                  if left.(k) = 0 then finished_now := k :: !finished_now)
                !transfers;
              let dc =
                List.fold_left
                  (fun acc k -> acc +. (w.(k) *. float_of_int (t + 1)))
                  done_cost !finished_now
              in
              slot (t + 1) dc (unfinished - List.length !finished_now);
              List.iter
                (fun (i, j, k) ->
                  rem.((k * m * m) + (i * m) + j) <-
                    rem.((k * m * m) + (i * m) + j) + 1;
                  left.(k) <- left.(k) + 1)
                !transfers
            in
            (* enumerate choices port by port *)
            let rec choose i =
              if i = m then begin
                if maximal () then commit ()
              end
              else begin
                (* serve some pair (i, j) on behalf of some coflow *)
                for j = 0 to m - 1 do
                  if not dst_used.(j) then
                    for k = 0 to n - 1 do
                      if rel.(k) <= t && rem.((k * m * m) + (i * m) + j) > 0
                      then begin
                        src_used.(i) <- true;
                        dst_used.(j) <- true;
                        transfers := (i, j, k) :: !transfers;
                        choose (i + 1);
                        transfers := List.tl !transfers;
                        src_used.(i) <- false;
                        dst_used.(j) <- false
                      end
                    done
                done;
                (* or leave ingress i idle *)
                choose (i + 1)
              end
            in
            choose 0
          end
        end
      end
    in
    slot 0 0.0 unfinished0;
    !best
  end

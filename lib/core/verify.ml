open Workload

type check = (unit, string) result

let demands_in_order inst order =
  Array.map (fun k -> (Instance.coflow inst k).Instance.demand) order

let lemma2_prefix_bound inst order completion =
  let v = Coflow.cumulative_loads (demands_in_order inst order) in
  let rec scan pos prefix_max =
    if pos >= Array.length order then Ok ()
    else begin
      let k = order.(pos) in
      let prefix_max = max prefix_max completion.(k) in
      if v.(pos) > prefix_max then
        Error
          (Printf.sprintf
             "Lemma 2 violated at position %d: V=%d > prefix completion %d"
             pos v.(pos) prefix_max)
      else scan (pos + 1) prefix_max
    end
  in
  scan 0 0

let lemma3_lp_bound inst (lp : Lp_relax.result) =
  let order = lp.Lp_relax.order in
  let v = Coflow.cumulative_loads (demands_in_order inst order) in
  let rec scan pos =
    if pos >= Array.length order then Ok ()
    else begin
      let k = order.(pos) in
      (* The paper's case analysis (Appendix C) silently assumes
         cbar_k > tau_0 = 0; for coflows the LP finishes inside the very
         first interval the same constraint-(11) argument at l = 2 yields
         the absolute bound V_k <= 2 * tau_2 = 4, so the honest inequality
         is V_k <= max (4, 16/3 cbar_k). *)
      let bound = max 4.0 (16.0 /. 3.0 *. lp.Lp_relax.cbar.(k)) in
      if v.(pos) > 0 && float_of_int v.(pos) > bound +. 1e-6 then
        Error
          (Printf.sprintf
             "Lemma 3 violated at position %d (coflow %d): V=%d > 16/3 * \
              cbar=%g"
             pos k v.(pos) bound)
      else scan (pos + 1)
    end
  in
  scan 0

let proposition1_bound inst order completion =
  let v = Coflow.cumulative_loads (demands_in_order inst order) in
  let rec scan pos max_release =
    if pos >= Array.length order then Ok ()
    else begin
      let k = order.(pos) in
      let max_release =
        max max_release (Instance.coflow inst k).Instance.release
      in
      let bound = max_release + (4 * v.(pos)) in
      if completion.(k) > bound then
        Error
          (Printf.sprintf
             "Proposition 1 violated for coflow %d: C=%d > max r + 4V = %d"
             k completion.(k) bound)
      else scan (pos + 1) max_release
    end
  in
  scan 0 0

let proposition1_grouped_bound inst groups completion =
  let order = Grouping.flatten groups in
  let v = Coflow.cumulative_loads (demands_in_order inst order) in
  let release_at pos = (Instance.coflow inst order.(pos)).Instance.release in
  (* prefix maxima of release dates along the order *)
  let n = Array.length order in
  let prefix_release = Array.make n 0 in
  let running = ref 0 in
  for pos = 0 to n - 1 do
    running := max !running (release_at pos);
    prefix_release.(pos) <- !running
  done;
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos k -> pos_of.(k) <- pos) order;
  let check_group u =
    let members = Grouping.members groups u in
    let last_pos =
      Array.fold_left (fun acc k -> max acc pos_of.(k)) 0 members
    in
    let bound = prefix_release.(last_pos) + (4 * v.(last_pos)) in
    Array.fold_left
      (fun acc k ->
        match acc with
        | Error _ -> acc
        | Ok () ->
          if completion.(k) > bound then
            Error
              (Printf.sprintf
                 "grouped Proposition 1 violated for coflow %d (group %d): \
                  C=%d > max r + 4 V(last) = %d"
                 k u completion.(k) bound)
          else Ok ())
      (Ok ()) members
  in
  let rec scan u =
    if u >= Grouping.group_count groups then Ok ()
    else begin
      match check_group u with Ok () -> scan (u + 1) | e -> e
    end
  in
  scan 0

let randomized_draw_bound ~a inst groups completion =
  if a <= 1.0 then invalid_arg "Verify.randomized_draw_bound: a must exceed 1";
  let order = Grouping.flatten groups in
  let v = Coflow.cumulative_loads (demands_in_order inst order) in
  let n = Array.length order in
  let pos_of = Array.make n 0 in
  Array.iteri (fun pos k -> pos_of.(k) <- pos) order;
  let factor = a *. a /. (a -. 1.0) in
  let rec scan u =
    if u >= Grouping.group_count groups then Ok ()
    else begin
      let members = Grouping.members groups u in
      let last_pos =
        Array.fold_left (fun acc k -> max acc pos_of.(k)) 0 members
      in
      let bound = factor *. float_of_int v.(last_pos) in
      let bad =
        Array.fold_left
          (fun acc k ->
            match acc with
            | Some _ -> acc
            | None ->
              if float_of_int completion.(k) > bound +. 1e-9 then Some k
              else None)
          None members
      in
      match bad with
      | Some k ->
        Error
          (Printf.sprintf
             "randomized draw bound violated for coflow %d: C=%d > %.3f * \
              V(last) = %.3f"
             k completion.(k) factor bound)
      | None -> scan (u + 1)
    end
  in
  scan 0

let theorem1_ratio _inst (lp : Lp_relax.result) ~twct =
  if lp.Lp_relax.lower_bound <= 0.0 then
    if twct <= 0.0 then 1.0 else infinity
  else twct /. lp.Lp_relax.lower_bound

let deterministic_ratio_limit ~with_releases =
  if with_releases then 67.0 /. 3.0 else 64.0 /. 3.0

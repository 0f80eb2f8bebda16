open Workload

type t = int array array

let singletons order = Array.map (fun k -> [| k |]) order

(* Group consecutive coflows whose class indices coincide. [klass k] maps a
   cumulative load to its geometric class. *)
let group_by_class order classes =
  let groups = ref [] and current = ref [] and current_class = ref min_int in
  Array.iteri
    (fun pos k ->
      let c = classes.(pos) in
      if c <> !current_class && !current <> [] then begin
        groups := Array.of_list (List.rev !current) :: !groups;
        current := []
      end;
      current_class := c;
      current := k :: !current)
    order;
  if !current <> [] then groups := Array.of_list (List.rev !current) :: !groups;
  Array.of_list (List.rev !groups)

let cumulative_in_order inst order =
  let demands =
    Array.map (fun k -> (Instance.coflow inst k).Instance.demand) order
  in
  Coflow.cumulative_loads demands

let deterministic ?(speed = 1) inst order =
  if speed < 1 then invalid_arg "Grouping.deterministic: speed must be >= 1";
  let v = cumulative_in_order inst order in
  let classes =
    Array.map
      (fun vk ->
        if vk = 0 then 0
        else begin
          (* drain time on an aggregate-speed-[speed] net, rounded up
             without passing [max_int] *)
          let vk = ((vk - 1) / speed) + 1 in
          (* smallest s >= 1 with 2^(s-1) >= vk; a power past [max_int]
             has no int, and [max_int] ends the search there *)
          let rec search s cap =
            if cap >= vk then s
            else
              search (s + 1) (if cap > max_int / 2 then max_int else 2 * cap)
          in
          search 1 1
        end)
      v
  in
  group_by_class order classes

let golden_a = 1.0 +. sqrt 2.0

let randomized ~a ~t0 inst order =
  if a <= 1.0 then invalid_arg "Grouping.randomized: a must exceed 1";
  if t0 < 1.0 then invalid_arg "Grouping.randomized: t0 must be at least 1";
  let v = cumulative_in_order inst order in
  let classes =
    Array.map
      (fun vk ->
        if vk = 0 then 0
        else begin
          let vk = float_of_int vk in
          let rec search s cap = if cap >= vk then s else search (s + 1) (cap *. a) in
          search 1 t0
        end)
      v
  in
  group_by_class order classes

let draw_t0 st = 1.0 +. Random.State.float st (golden_a -. 1.0)

let group_count = Array.length

let members groups u =
  if u < 0 || u >= Array.length groups then
    invalid_arg "Grouping.members: out of range";
  Array.copy groups.(u)

let flatten groups = Array.concat (Array.to_list groups)

open Workload
open Switchsim

type rule = Weighted_bottleneck | Weighted_remaining | Arrival_order

let rule_name = function
  | Weighted_bottleneck -> "online weighted bottleneck (SEBF/w)"
  | Weighted_remaining -> "online weighted remaining (SRPT/w)"
  | Arrival_order -> "online FCFS"

let all_rules = [ Weighted_bottleneck; Weighted_remaining; Arrival_order ]

(* The simulator does not carry weights; policies capture them when
   built. *)
let keyed_priority rule sim weights =
  let n = Simulator.num_coflows sim in
  let alive = ref [] in
  for k = n - 1 downto 0 do
    if Simulator.released sim k && not (Simulator.is_complete sim k) then
      alive := k :: !alive
  done;
  let key k =
    let w = weights.(k) in
    match rule with
    | Weighted_bottleneck ->
      (float_of_int (Simulator.remaining_load sim k) /. w, k)
    | Weighted_remaining ->
      (float_of_int (Simulator.remaining_total sim k) /. w, k)
    | Arrival_order -> (float_of_int (Simulator.release_time sim k), k)
  in
  List.map key !alive |> List.sort compare |> List.map snd

let decide rule weights sim =
  Policy.greedy_matching sim
    ~priority:(Array.of_list (keyed_priority rule sim weights))

let as_policy ~weights rule =
  Policy.stateless ~describe:(rule_name rule) (decide rule weights)

let run rule inst =
  Engine.run inst (as_policy ~weights:(Instance.weights inst) rule)

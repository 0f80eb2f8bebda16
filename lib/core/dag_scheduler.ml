open Workload
open Switchsim

type priority = Critical_path | Weighted_bottleneck | Fifo

let priority_name = function
  | Critical_path -> "critical path"
  | Weighted_bottleneck -> "weighted bottleneck"
  | Fifo -> "availability order"

let all_priorities = [ Critical_path; Weighted_bottleneck; Fifo ]

type result = {
  stage_completion : int array;
  job_completion : (int * int) list;
  stage_twct : float;
  makespan : int;
}

let run ?max_slots priority dag =
  let n = Dag.num_stages dag in
  let m = Dag.ports dag in
  let cp = Dag.critical_path_load dag in
  (* pending stages carry release max_int until their deps finish *)
  let demands =
    List.init n (fun k ->
        let s = Dag.stage dag k in
        let release = if s.Dag.deps = [] then 0 else max_int in
        (release, s.Dag.demand))
  in
  let sim = Simulator.create ~ports:m demands in
  let outstanding = Array.init n (fun k -> List.length (Dag.deps_of dag k)) in
  let enabled = Array.make n false in
  List.iter (fun k -> enabled.(k) <- true) (Dag.roots dag);
  (* A completed stage enables its successors; empty stages complete at
     creation, so propagate until a fixed point before every decision.
     Propagation only moves release dates and never completes a stage, so
     the loop's completion check reads the same either side of it. *)
  let enacted_completion = Array.make n false in
  let rec propagate () =
    let progress = ref false in
    for k = 0 to n - 1 do
      if
        (not enacted_completion.(k))
        && enabled.(k)
        && Simulator.is_complete sim k
      then begin
        enacted_completion.(k) <- true;
        progress := true;
        List.iter
          (fun s ->
            outstanding.(s) <- outstanding.(s) - 1;
            if outstanding.(s) = 0 then begin
              enabled.(s) <- true;
              Simulator.set_release sim s (Simulator.now sim)
            end)
          (Dag.successors_of dag k)
      end
    done;
    if !progress then propagate ()
  in
  let key k =
    let s = Dag.stage dag k in
    match priority with
    | Critical_path -> (float_of_int (-cp.(k)), k)
    | Weighted_bottleneck ->
      (float_of_int (Simulator.remaining_load sim k) /. s.Dag.weight, k)
    | Fifo -> (float_of_int (Simulator.release_time sim k), k)
  in
  (* one slot per decision: the weighted-bottleneck key moves every slot *)
  let decide sim ~max_n:_ =
    propagate ();
    let alive = ref [] in
    for k = n - 1 downto 0 do
      if Simulator.released sim k && not (Simulator.is_complete sim k) then
        alive := k :: !alive
    done;
    let priority =
      List.map key !alive |> List.sort compare |> List.map snd |> Array.of_list
    in
    (Policy.greedy_matching sim ~priority, 1)
  in
  let (_ : int) =
    Simulator.run ?max_slots sim ~policy:decide ~committed:ignore
  in
  let stage_completion =
    Array.init n (fun k -> Simulator.completion_time_exn sim k)
  in
  let stage_twct =
    Array.to_list stage_completion
    |> List.mapi (fun k c -> (Dag.stage dag k).Dag.weight *. float_of_int c)
    |> List.fold_left ( +. ) 0.0
  in
  { stage_completion;
    job_completion =
      List.map (fun k -> (k, stage_completion.(k))) (Dag.sinks dag);
    stage_twct;
    makespan = Simulator.now sim;
  }

let total_sink_completion r =
  List.fold_left (fun acc (_, c) -> acc + c) 0 r.job_completion

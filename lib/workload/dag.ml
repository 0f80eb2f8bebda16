open Matrix

type stage = {
  id : int;
  weight : float;
  demand : Mat.t;
  deps : int list;
}

type t = { ports : int; stages : stage array }

let make ~ports stages =
  if ports <= 0 then invalid_arg "Dag.make: ports must be positive";
  let arr = Array.of_list stages in
  let n = Array.length arr in
  let by_id = Hashtbl.create n in
  Array.iteri
    (fun k s ->
      if Mat.dim s.demand <> ports then
        invalid_arg "Dag.make: demand dimension mismatch";
      if s.weight <= 0.0 then invalid_arg "Dag.make: non-positive weight";
      if Hashtbl.mem by_id s.id then invalid_arg "Dag.make: duplicate stage id";
      Hashtbl.add by_id s.id k)
    arr;
  Array.iter
    (fun s ->
      List.iter
        (fun d ->
          if not (Hashtbl.mem by_id d) then
            invalid_arg
              (Printf.sprintf "Dag.make: stage %d depends on unknown id %d"
                 s.id d);
          if d = s.id then
            invalid_arg (Printf.sprintf "Dag.make: stage %d depends on itself" s.id))
        s.deps)
    arr;
  (* cycle detection by depth-first search with colours *)
  let colour = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let rec visit path k =
    match colour.(k) with
    | 2 -> ()
    | 1 ->
      let names = List.rev_map (fun i -> string_of_int arr.(i).id) (k :: path) in
      invalid_arg
        ("Dag.make: dependency cycle through stages "
        ^ String.concat " -> " names)
    | _ ->
      colour.(k) <- 1;
      List.iter
        (fun d -> visit (k :: path) (Hashtbl.find by_id d))
        arr.(k).deps;
      colour.(k) <- 2
  in
  for k = 0 to n - 1 do
    visit [] k
  done;
  { ports; stages = arr }

let ports t = t.ports

let num_stages t = Array.length t.stages

let stage t k =
  if k < 0 || k >= num_stages t then invalid_arg "Dag.stage: out of range";
  t.stages.(k)

let index_of_id t id =
  let found = ref (-1) in
  Array.iteri (fun k s -> if s.id = id then found := k) t.stages;
  if !found < 0 then raise Not_found else !found

let deps_of t k =
  List.map (index_of_id t) (stage t k).deps

let successors_of t k =
  let id = (stage t k).id in
  let out = ref [] in
  Array.iteri
    (fun k' s -> if List.mem id s.deps then out := k' :: !out)
    t.stages;
  List.rev !out

let roots t =
  let out = ref [] in
  Array.iteri (fun k s -> if s.deps = [] then out := k :: !out) t.stages;
  List.rev !out

let sinks t =
  let out = ref [] in
  for k = 0 to num_stages t - 1 do
    if successors_of t k = [] then out := k :: !out
  done;
  List.rev !out

let critical_path_load t =
  let n = num_stages t in
  let cp = Array.make n (-1) in
  let rec compute k =
    if cp.(k) >= 0 then cp.(k)
    else begin
      let down =
        List.fold_left (fun acc s -> max acc (compute s)) 0 (successors_of t k)
      in
      cp.(k) <- Mat.load t.stages.(k).demand + down;
      cp.(k)
    end
  in
  for k = 0 to n - 1 do
    ignore (compute k)
  done;
  cp

let random ?(stages_per_job = 4) ?(jobs = 8) ?(max_flow_size = 6) ~ports st =
  if stages_per_job <= 0 || jobs <= 0 then
    invalid_arg "Dag.random: sizes must be positive";
  let stages = ref [] in
  let next_id = ref 0 in
  for _job = 1 to jobs do
    let job_stage_ids = Array.make stages_per_job 0 in
    for s = 0 to stages_per_job - 1 do
      let id = !next_id in
      incr next_id;
      job_stage_ids.(s) <- id;
      (* depend on a random non-empty subset of earlier stages of the same
         job (stage 0 is a root) *)
      let deps = ref [] in
      if s > 0 then begin
        let d = Random.State.int st s in
        deps := [ job_stage_ids.(d) ];
        if s > 1 && Random.State.bool st then begin
          let d2 = Random.State.int st s in
          if not (List.mem job_stage_ids.(d2) !deps) then
            deps := job_stage_ids.(d2) :: !deps
        end
      end;
      let mappers = 1 + Random.State.int st (max 1 (ports / 2)) in
      let reducers = 1 + Random.State.int st (max 1 (ports / 2)) in
      let demand =
        Synthetic.mapreduce ~max_flow_size ~ports ~mappers ~reducers st
      in
      stages :=
        { id; weight = 1.0; demand; deps = !deps } :: !stages
    done
  done;
  make ~ports (List.rev !stages)

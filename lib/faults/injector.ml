open Switchsim

type t = {
  plan : Fault_plan.t;
  sim : Simulator.t;
  stragglers : (int * int * int) array; (* (at, coflow, factor), by slot *)
  mutable next_straggler : int;
}

let sim t = t.sim

let plan t = t.plan

let pair_ok t ~slot ~src ~dst =
  (not (Fault_plan.port_down t.plan ~slot src))
  && (not (Fault_plan.port_down t.plan ~slot dst))
  && Fault_plan.link_usable t.plan ~slot ~src ~dst

(* A degraded core caps inter-rack transfers on an oversubscribed fabric
   and every transfer on a non-blocking one (aggregate switch
   degradation); the undegraded budget sums the fabrics' own caps. *)
let core_counts net ~fabric ~src ~dst =
  match Net.core_capacity net fabric with
  | None -> true
  | Some _ -> Net.crosses_core net ~fabric ~src ~dst

let capacity ~net ~plan ~slot =
  let base = ref 0 in
  for f = 0 to Net.k net - 1 do
    base :=
      !base
      + match Net.core_capacity net f with Some c -> c | None -> Net.ports net
  done;
  match Fault_plan.core_capacity plan ~slot with
  | Some c -> min !base c
  | None -> !base

let effective_capacity t ~slot =
  capacity ~net:(Simulator.net t.sim) ~plan:t.plan ~slot

(* Shared by the simulator's validate hook and by {!Audit.check}: the fault
   constraints one slot must satisfy, independent of demand state. *)
let check_slot ~net ~plan ~slot transfers =
  let ports = Net.ports net in
  let capacity = capacity ~net ~plan ~slot in
  let rec scan used = function
    | [] -> if used > capacity then
        Error
          (Printf.sprintf
             "slot %d: %d transfers exceed degraded capacity %d" slot used
             capacity)
      else Ok ()
    | { Simulator.src; dst; fabric; _ } :: rest ->
      if src < 0 || src >= ports || dst < 0 || dst >= ports then
        Error (Printf.sprintf "slot %d: port out of range %d->%d" slot src dst)
      else if fabric < 0 || fabric >= Net.k net then
        Error (Printf.sprintf "slot %d: fabric %d out of range" slot fabric)
      else if Fault_plan.fabric_down plan ~slot fabric then
        Error (Printf.sprintf "slot %d: fabric %d is down" slot fabric)
      else if Fault_plan.port_down plan ~slot src then
        Error (Printf.sprintf "slot %d: ingress %d is down" slot src)
      else if Fault_plan.port_down plan ~slot dst then
        Error (Printf.sprintf "slot %d: egress %d is down" slot dst)
      else if not (Fault_plan.link_usable plan ~slot ~src ~dst) then
        Error
          (Printf.sprintf "slot %d: link (%d, %d) degraded (period %d)" slot
             src dst
             (Fault_plan.link_period plan ~slot ~src ~dst))
      else
        scan (if core_counts net ~fabric ~src ~dst then used + 1 else used) rest
  in
  scan 0 transfers

let create ?net ~plan ~ports demands =
  let net = match net with Some n -> n | None -> Net.single ~ports in
  Fault_plan.validate_exn ~fabrics:(Net.k net) ~ports
    ~coflows:(List.length demands) plan;
  (* delayed releases are known at admission time: fold them into the
     release dates before the simulator is built *)
  let demands =
    List.mapi
      (fun k (r, d) -> (r + Fault_plan.release_delay plan k, d))
      demands
  in
  let sim_cell = ref None in
  let validate transfers =
    match !sim_cell with
    | None -> Ok ()
    | Some sim -> check_slot ~net ~plan ~slot:(Simulator.now sim) transfers
  in
  let sim = Simulator.create ~validate ~net ~ports demands in
  sim_cell := Some sim;
  { plan;
    sim;
    stragglers = Array.of_list (Fault_plan.stragglers plan);
    next_straggler = 0;
  }

let tick t =
  let slot = Simulator.now t.sim in
  while
    t.next_straggler < Array.length t.stragglers
    && (let at, _, _ = t.stragglers.(t.next_straggler) in
        at <= slot)
  do
    let _, k, factor = t.stragglers.(t.next_straggler) in
    t.next_straggler <- t.next_straggler + 1;
    if Obs.Trace.enabled () then
      Obs.Trace.instant ~name:"straggler" ~cat:"fault" ~slot
        ~args:[ ("coflow", string_of_int k); ("factor", string_of_int factor) ]
        ();
    if not (Simulator.is_complete t.sim k) then begin
      (* collect first: the demand matrix must not grow mid-iteration *)
      let entries = ref [] in
      Simulator.iter_remaining t.sim k (fun i j v ->
          entries := (i, j, v) :: !entries);
      List.iter
        (fun (i, j, v) ->
          Simulator.add_demand t.sim k ~src:i ~dst:j ((factor - 1) * v))
        !entries
    end
  done

let greedy_policy t priority sim =
  let slot = Simulator.now sim in
  let m = Simulator.ports sim in
  let kf = Simulator.num_fabrics sim in
  (* fabric [f]'s port claims live at [f * m + port]; surviving fabrics
     are swept fastest first, skipping any fabric the plan has down *)
  let src_used = Array.make (kf * m) false
  and dst_used = Array.make (kf * m) false in
  let net = Simulator.net sim in
  let core_left = ref (effective_capacity t ~slot) in
  let taken = if kf > 1 then Some (Hashtbl.create 64) else None in
  let transfers = ref [] in
  Array.iter
    (fun f ->
      if not (Fault_plan.fabric_down t.plan ~slot f) then
        let off = f * m in
        Array.iter
          (fun k ->
            if Simulator.released sim k && not (Simulator.is_complete sim k)
            then
              Simulator.iter_remaining sim k (fun i j _ ->
                  if
                    (not (src_used.(off + i) || dst_used.(off + j)))
                    && pair_ok t ~slot ~src:i ~dst:j
                    && (match taken with
                       | Some tbl -> not (Hashtbl.mem tbl (k, i, j))
                       | None -> true)
                  then begin
                    let tr =
                      { Simulator.src = i; dst = j; coflow = k; fabric = f }
                    in
                    let core = core_counts net ~fabric:f ~src:i ~dst:j in
                    if (not core) || !core_left > 0 then begin
                      src_used.(off + i) <- true;
                      dst_used.(off + j) <- true;
                      if core then decr core_left;
                      (match taken with
                      | Some tbl -> Hashtbl.replace tbl (k, i, j) ()
                      | None -> ());
                      transfers := tr :: !transfers
                    end
                  end))
          priority)
    (Net.by_rate net);
  !transfers

let run ?(max_slots = 10_000_000) t ~priority =
  let budget = ref max_slots in
  while not (Simulator.all_complete t.sim) do
    if !budget <= 0 then failwith "Injector.run: slot budget exhausted";
    decr budget;
    tick t;
    Simulator.step t.sim (greedy_policy t priority t.sim)
  done

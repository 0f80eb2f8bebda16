open Switchsim

type t = {
  plan : Fault_plan.t;
  faults : Fault_plan.state;
  sim : Simulator.t;
  stragglers : (int * int * int) array; (* (at, coflow, factor), by slot *)
  mutable next_straggler : int;
}

let sim t = t.sim

let plan t = t.plan

let faults t = t.faults

let port_up st p =
  Fault_plan.port_up_word st (Matrix.Bits.word_of p)
  land (1 lsl Matrix.Bits.bit_of p)
  <> 0

let link_on_duty st ~src ~dst =
  Fault_plan.off_duty_word st ~src (Matrix.Bits.word_of dst)
  land (1 lsl Matrix.Bits.bit_of dst)
  = 0

(* The validate hook's per-transfer scan over the compiled state, checks
   and messages in the order the audit uses; a top-level recursion, so a
   slot allocates nothing unless it is rejected. *)
let rec scan net plan st ~slot used = function
  | [] ->
    let capacity = Fault_plan.core_budget st in
    if used > capacity then
      Error
        (Printf.sprintf "slot %d: %d transfers exceed degraded capacity %d"
           slot used capacity)
    else Ok ()
  | { Simulator.src; dst; fabric; _ } :: rest ->
    let ports = Net.ports net in
    if src < 0 || src >= ports || dst < 0 || dst >= ports then
      Error (Printf.sprintf "slot %d: port out of range %d->%d" slot src dst)
    else if fabric < 0 || fabric >= Net.k net then
      Error (Printf.sprintf "slot %d: fabric %d out of range" slot fabric)
    else if Fault_plan.fabric_dead st fabric then
      Error (Printf.sprintf "slot %d: fabric %d is down" slot fabric)
    else if not (port_up st src) then
      Error (Printf.sprintf "slot %d: ingress %d is down" slot src)
    else if not (port_up st dst) then
      Error (Printf.sprintf "slot %d: egress %d is down" slot dst)
    else if not (link_on_duty st ~src ~dst) then
      Error
        (Printf.sprintf "slot %d: link (%d, %d) degraded (period %d)" slot src
           dst
           (Fault_plan.link_period plan ~slot ~src ~dst))
    else
      scan net plan st ~slot
        (if Fault_plan.core_counts net ~fabric ~src ~dst then used + 1
         else used)
        rest

(* [slots] consecutive slots from [slot] may commit [transfers] only if
   the fault state holds still over all of them *)
let check net plan st ~slot ~slots transfers =
  Fault_plan.refresh st ~slot;
  let until = Fault_plan.stable_until st in
  if slots > until - slot then
    Error
      (Printf.sprintf
         "slot %d: batch of %d slots crosses the fault-state change at slot %d"
         slot slots until)
  else scan net plan st ~slot 0 transfers

let create ?net ~plan ~ports demands =
  let net = match net with Some n -> n | None -> Net.single ~ports in
  if Net.ports net <> ports then
    invalid_arg "Injector.create: net port count mismatch";
  (* The compiled state keeps only the slow links some coflow has demand
     on.  Support never grows within a run ([tick]'s stragglers scale
     entries that already exist), the kernel reads a row's off-duty bits
     only through its support, and the hook checks duty only on served
     pairs, which the simulator rejects unless they carry demand: an
     uncarried link can change no decision, only end a batch early.
     Compiling validates the whole plan, once.  (A matrix of the wrong
     size is left to [Simulator.create] to name.) *)
  let faults =
    Fault_plan.compile ~coflows:(List.length demands)
      ~carried:(fun ~src ~dst ->
        List.exists
          (fun (_, d) ->
            Matrix.Mat.dim d = ports && Matrix.Mat.get d src dst > 0)
          demands)
      plan net
  in
  let stragglers = Fault_plan.stragglers plan in
  (* [tick] multiplies a coflow's remaining demand by each of its factors
     in turn: the product with the full demand must stay an int *)
  if stragglers <> [] then begin
    let demands = Array.of_list demands and grown = Hashtbl.create 8 in
    List.iter
      (fun (_, k, factor) ->
        let total =
          match Hashtbl.find_opt grown k with
          | Some v -> v
          | None -> Matrix.Mat.total (snd demands.(k))
        in
        if total > max_int / factor then
          invalid_arg
            (Printf.sprintf
               "Injector.create: straggler factor %d overflows the demand of \
                coflow %d"
               factor k);
        Hashtbl.replace grown k (total * factor))
      stragglers
  end;
  (* delayed releases are known at admission time: fold them into the
     release dates before the simulator is built *)
  let demands =
    List.mapi
      (fun k (r, d) -> (r + Fault_plan.release_delay plan k, d))
      demands
  in
  let sim_cell = ref None in
  let validate ~slots transfers =
    match !sim_cell with
    | None -> Ok ()
    | Some sim ->
      check net plan faults ~slot:(Simulator.now sim) ~slots transfers
  in
  let sim = Simulator.create ~validate ~net ~ports demands in
  sim_cell := Some sim;
  { plan;
    faults;
    sim;
    stragglers = Array.of_list stragglers;
    next_straggler = 0;
  }

let tick t =
  let slot = Simulator.now t.sim in
  Fault_plan.refresh t.faults ~slot;
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

open Switchsim

(* Incremental certification: a soak feeds each slot as it is served, so a
   violation surfaces at the offending slot instead of at end-of-run, and
   the auditor's memory stays O(ports) no matter how long the run is.

   The auditor evaluates the raw event list itself ({!Fault_plan}'s list
   queries) and never reads the compiled state the injector enforces, so
   a bug in that state cannot certify itself.  Every check below is a
   top-level recursion or loop over the slot's transfers with the checker
   as scratch: a certified slot allocates nothing. *)
type checker = {
  c_net : Net.t;
  c_plan : Fault_plan.t;
  c_base : int;  (* undegraded core budget: sum of fabric caps / ports *)
  c_src : bool array;  (* scratch, fabric-major: ingress claims this slot *)
  c_dst : bool array;
  c_owner : int array;
      (* on a multi-fabric net, the [coflow * ports + dst] entry served
         from each claimed (fabric, ingress) this slot *)
  c_base_slot : int;  (* plan-time of the checker's first slot *)
  mutable c_next : int;  (* slots fed so far *)
  mutable c_slow : bool;  (* a served pair's link is slow this window *)
  mutable c_error : string option;  (* first violation, sticky *)
}

let checker ?net ?(start_slot = 0) ~plan ~ports () =
  if ports <= 0 then invalid_arg "Audit.checker: ports must be positive";
  if start_slot < 0 then invalid_arg "Audit.checker: negative start slot";
  let net = match net with Some n -> n | None -> Net.single ~ports in
  if Net.ports net <> ports then
    invalid_arg "Audit.checker: net port count mismatch";
  let kf = Net.k net in
  let base = ref 0 in
  for f = 0 to kf - 1 do
    base :=
      !base + match Net.core_capacity net f with Some c -> c | None -> ports
  done;
  { c_net = net;
    c_plan = plan;
    c_base = !base;
    c_src = Array.make (kf * ports) false;
    c_dst = Array.make (kf * ports) false;
    c_owner = Array.make (if kf > 1 then kf * ports else 0) 0;
    c_base_slot = start_slot;
    c_next = 0;
    c_slow = false;
    c_error = None;
  }

let checked_slots c = c.c_next

let checker_error c = c.c_error

(* "fabric f:" prefixes appear only on multi-fabric logs so single-fabric
   verdicts are byte-identical *)
let pfx c fabric =
  if Net.k c.c_net = 1 then "" else Printf.sprintf "fabric %d: " fabric

(* whether another fabric already served entry [key] from [src] this
   slot; an ingress carries one transfer per fabric, so its owner is the
   only candidate there *)
let rec served_elsewhere c ~fabric ~src ~key f =
  f < Net.k c.c_net
  && ((f <> fabric
      && c.c_src.((f * Net.ports c.c_net) + src)
      && c.c_owner.((f * Net.ports c.c_net) + src) = key)
     || served_elsewhere c ~fabric ~src ~key (f + 1))

(* port exclusivity per fabric, fabric bounds, and no (coflow, src, dst)
   entry on two fabrics in one slot *)
let rec check_matching c s = function
  | [] -> Ok ()
  | { Simulator.src; dst; coflow; fabric } :: rest ->
    let ports = Net.ports c.c_net and kf = Net.k c.c_net in
    if src < 0 || src >= ports || dst < 0 || dst >= ports then
      Error (Printf.sprintf "slot %d: port out of range %d->%d" s src dst)
    else if fabric < 0 || fabric >= kf then
      Error (Printf.sprintf "slot %d: fabric %d out of range" s fabric)
    else if c.c_src.((fabric * ports) + src) then
      Error
        (Printf.sprintf "slot %d: %singress %d used twice" s (pfx c fabric) src)
    else if c.c_dst.((fabric * ports) + dst) then
      Error
        (Printf.sprintf "slot %d: %segress %d used twice" s (pfx c fabric) dst)
    else if
      kf > 1
      && served_elsewhere c ~fabric ~src ~key:((coflow * ports) + dst) 0
    then
      Error
        (Printf.sprintf
           "slot %d: coflow %d pair (%d, %d) served on two fabrics" s coflow
           src dst)
    else begin
      c.c_src.((fabric * ports) + src) <- true;
      c.c_dst.((fabric * ports) + dst) <- true;
      if kf > 1 then
        c.c_owner.((fabric * ports) + src) <- (coflow * ports) + dst;
      check_matching c s rest
    end

(* tightest active core cap in the raw event list, [max_int] when none;
   [Fault_plan.core_capacity] answers with an option, this fold allocates
   nothing *)
let rec degraded_cap events ~slot acc =
  match events with
  | [] -> acc
  | Fault_plan.Core_degraded { from_; until; capacity } :: rest
    when from_ <= slot && slot < until ->
    degraded_cap rest ~slot (min acc capacity)
  | _ :: rest -> degraded_cap rest ~slot acc

(* the fault constraints, re-derived from the plan alone; ports and fabric
   indices are in range once [check_matching] passed.  A served pair on a
   slow link sets [c_slow]: its duty flips every slot. *)
let rec check_faults c s used = function
  | [] ->
    let capacity =
      min c.c_base (degraded_cap (Fault_plan.events c.c_plan) ~slot:s max_int)
    in
    if used > capacity then
      Error
        (Printf.sprintf "slot %d: %d transfers exceed degraded capacity %d" s
           used capacity)
    else Ok ()
  | { Simulator.src; dst; fabric; _ } :: rest ->
    let plan = c.c_plan in
    if Fault_plan.fabric_down plan ~slot:s fabric then
      Error (Printf.sprintf "slot %d: fabric %d is down" s fabric)
    else if Fault_plan.port_down plan ~slot:s src then
      Error (Printf.sprintf "slot %d: ingress %d is down" s src)
    else if Fault_plan.port_down plan ~slot:s dst then
      Error (Printf.sprintf "slot %d: egress %d is down" s dst)
    else
      (* [Fault_plan.link_usable], with the period kept for the message *)
      let period = Fault_plan.link_period plan ~slot:s ~src ~dst in
      if period > 1 && s mod period <> 0 then
        Error
          (Printf.sprintf "slot %d: link (%d, %d) degraded (period %d)" s src
             dst period)
      else begin
        if period > 1 then c.c_slow <- true;
        check_faults c s
          (if Fault_plan.core_counts c.c_net ~fabric ~src ~dst then used + 1
           else used)
          rest
      end

(* the first interval edge after [slot] and before [stop] of an event the
   fault checks read: up to there, every interval's activity, and with it
   each check's verdict, holds still *)
let rec next_edge events ~slot stop =
  match events with
  | [] -> stop
  | ( Fault_plan.Port_down { from_; until; _ }
    | Fault_plan.Link_degraded { from_; until; _ }
    | Fault_plan.Core_degraded { from_; until; _ }
    | Fault_plan.Fabric_down { from_; until; _ } )
    :: rest ->
    let stop = if from_ > slot && from_ < stop then from_ else stop in
    next_edge rest ~slot (if until > slot && until < stop then until else stop)
  | ( Fault_plan.Straggler _ | Fault_plan.Release_delay _
    | Fault_plan.Solver_outage _ )
    :: rest ->
    next_edge rest ~slot stop

(* [check_faults] once per window [s, e) of [s, stop): the window ends at
   the next interval edge, or after one slot when a served pair's link is
   slow at [s].  Within it every input of the checks is constant, so [s]'s
   verdict is every slot's; the first failing window fails at its first
   slot, where the cursor stops. *)
let rec certify_windows c transfers s stop =
  c.c_slow <- false;
  match check_faults c s 0 transfers with
  | Error _ as e ->
    c.c_next <- s + 1 - c.c_base_slot;
    e
  | Ok () ->
    let e =
      if c.c_slow || s + 1 = stop then s + 1
      else next_edge (Fault_plan.events c.c_plan) ~slot:s stop
    in
    if e >= stop then Ok () else certify_windows c transfers e stop

(* A batched slot: the same transfers served for [n] consecutive slots.
   Port exclusivity, fabric bounds and the two-fabric dedupe do not depend
   on the slot, so the matching is checked once, at the first slot; the
   fault checks run once per window. *)
let feed_many c transfers ~slots:n =
  if n < 1 then invalid_arg "Audit.feed_many: slots must be >= 1";
  match c.c_error with
  | Some e -> Error e
  | None ->
    let s = c.c_base_slot + c.c_next in
    Array.fill c.c_src 0 (Array.length c.c_src) false;
    Array.fill c.c_dst 0 (Array.length c.c_dst) false;
    let verdict =
      match check_matching c s transfers with
      | Error _ as e ->
        c.c_next <- c.c_next + 1;
        e
      | Ok () ->
        c.c_next <- c.c_next + n;
        certify_windows c transfers s (s + n)
    in
    (match verdict with Error e -> c.c_error <- Some e | Ok () -> ());
    verdict

let feed c transfers = feed_many c transfers ~slots:1

let check ?net ~plan (t : Recorder.t) =
  let c = checker ?net ~plan ~ports:t.ports () in
  Array.fold_left
    (fun acc transfers ->
      match acc with Error _ -> acc | Ok () -> feed c transfers)
    (Ok ()) t.slots

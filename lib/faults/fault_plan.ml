type event =
  | Port_down of { port : int; from_ : int; until : int }
  | Link_degraded of {
      src : int;
      dst : int;
      from_ : int;
      until : int;
      period : int;
    }
  | Core_degraded of { from_ : int; until : int; capacity : int }
  | Straggler of { coflow : int; at : int; factor : int }
  | Release_delay of { coflow : int; delay : int }
  | Solver_outage of { from_ : int; until : int; full : bool }
  | Fabric_down of { fabric : int; from_ : int; until : int }

type t = { events : event list }

let empty = { events = [] }

let make events = { events }

let events t = t.events

let is_empty t = t.events = []

let active ~from_ ~until slot = from_ <= slot && slot < until

(* ---------- validation ---------- *)

let event_error i msg = Error (Printf.sprintf "event %d: %s" i msg)

let check_interval i ~from_ ~until =
  if from_ < 0 then event_error i "negative start slot"
  else if until <= from_ then event_error i "empty or inverted interval"
  else Ok ()

let check_event ~ports ~coflows ~fabrics i = function
  | Port_down { port; from_; until } ->
    if port < 0 || port >= ports then event_error i "port out of range"
    else check_interval i ~from_ ~until
  | Link_degraded { src; dst; from_; until; period } ->
    if src < 0 || src >= ports || dst < 0 || dst >= ports then
      event_error i "link endpoint out of range"
    else if period < 2 then
      event_error i "degradation period must be at least 2"
    else check_interval i ~from_ ~until
  | Core_degraded { from_; until; capacity } ->
    if capacity < 0 then event_error i "negative degraded capacity"
    else check_interval i ~from_ ~until
  | Straggler { coflow; at; factor } ->
    if coflow < 0 || coflow >= coflows then event_error i "coflow out of range"
    else if at < 0 then event_error i "negative straggler slot"
    else if factor < 2 then event_error i "straggler factor must be at least 2"
    else Ok ()
  | Release_delay { coflow; delay } ->
    if coflow < 0 || coflow >= coflows then event_error i "coflow out of range"
    else if delay <= 0 then event_error i "delay must be positive"
    else Ok ()
  | Solver_outage { from_; until; full = _ } ->
    check_interval i ~from_ ~until
  | Fabric_down { fabric; from_; until } ->
    if fabric < 0 || fabric >= fabrics then
      event_error i "fabric out of range"
    else if fabric = 0 && fabrics = 1 then
      event_error i "cannot take down the only fabric"
    else check_interval i ~from_ ~until

let validate ?(fabrics = 1) ~ports ~coflows t =
  if ports <= 0 then Error "ports must be positive"
  else begin
    let rec scan i = function
      | [] -> Ok ()
      | e :: rest -> (
        match check_event ~ports ~coflows ~fabrics i e with
        | Ok () -> scan (i + 1) rest
        | err -> err)
    in
    scan 0 t.events
  end

(* ---------- per-slot queries ---------- *)

(* The boolean and period queries are top-level recursions over the event
   list: no closure, option or tuple per call, so the audit can evaluate
   the raw plan on every slot without allocating. *)
let rec port_down_in events ~slot p =
  match events with
  | [] -> false
  | Port_down { port; from_; until } :: _
    when port = p && active ~from_ ~until slot ->
    true
  | _ :: rest -> port_down_in rest ~slot p

let port_down t ~slot p = port_down_in t.events ~slot p

let rec link_period_in events ~slot ~src ~dst acc =
  match events with
  | [] -> acc
  | Link_degraded { src = s; dst = d; from_; until; period } :: rest
    when s = src && d = dst && active ~from_ ~until slot ->
    link_period_in rest ~slot ~src ~dst (max acc period)
  | _ :: rest -> link_period_in rest ~slot ~src ~dst acc

let link_period t ~slot ~src ~dst = link_period_in t.events ~slot ~src ~dst 1

(* A link degraded to period [p] carries at most one unit every [p] slots;
   the usable slots are the multiples of [p] so two plans composed by [max]
   stay deterministic. *)
let link_usable t ~slot ~src ~dst =
  let p = link_period t ~slot ~src ~dst in
  p = 1 || slot mod p = 0

let core_capacity t ~slot =
  List.fold_left
    (fun acc e ->
      match e with
      | Core_degraded { from_; until; capacity } when active ~from_ ~until slot
        -> (
        match acc with
        | None -> Some capacity
        | Some c -> Some (min c capacity))
      | _ -> acc)
    None t.events

let rec fabric_down_in events ~slot f =
  match events with
  | [] -> false
  | Fabric_down { fabric; from_; until } :: _
    when fabric = f && active ~from_ ~until slot ->
    true
  | _ :: rest -> fabric_down_in rest ~slot f

let fabric_down t ~slot f = fabric_down_in t.events ~slot f

let solver_outage t ~slot =
  List.fold_left
    (fun acc e ->
      match e with
      | Solver_outage { from_; until; full } when active ~from_ ~until slot ->
        if full then `Full else if acc = `Full then `Full else `Lp_only
      | _ -> acc)
    `None t.events

let release_delay t k =
  List.fold_left
    (fun acc e ->
      match e with
      | Release_delay { coflow; delay } when coflow = k -> acc + delay
      | _ -> acc)
    0 t.events

let stragglers t =
  List.filter_map
    (function
      | Straggler { coflow; at; factor } -> Some (at, coflow, factor)
      | _ -> None)
    t.events
  |> List.stable_sort compare

(* Slots at which the fault environment changes — the re-planning triggers
   of the resilient scheduling loop. *)
let boundaries t =
  let add acc s = if s < 0 then acc else s :: acc in
  let slots =
    List.fold_left
      (fun acc e ->
        match e with
        | Port_down { from_; until; _ }
        | Link_degraded { from_; until; _ }
        | Core_degraded { from_; until; _ }
        | Solver_outage { from_; until; _ }
        | Fabric_down { from_; until; _ } ->
          add (add acc from_) until
        | Straggler { at; _ } -> add acc at
        | Release_delay _ -> acc)
      [] t.events
  in
  List.sort_uniq compare slots

(* ---------- compiled state ---------- *)

(* The serving-relevant part of the plan at one slot, as bitsets a
   matching kernel can [land] with its free-port words, plus the window
   [slot, until) over which none of it changes.  Recomputed from the event
   list only when a query leaves that window, so a run pays O(events +
   ports * words) per fault-state change instead of an event-list scan
   per candidate pair. *)
type state = {
  events : event list; (* the plan less its uncarried slow links *)
  ports : int;
  words : int;
  base : int; (* sum over fabrics of core capacity, ports if non-blocking *)
  up : int array; (* ports-up bitset, [words] words *)
  off : int array; (* row [src]'s off-duty destinations at [src * words] *)
  dead : bool array; (* per fabric *)
  mutable budget : int;
  mutable slot : int;
  mutable until : int;
}

let compile ~carried ~coflows t net =
  let ports = Switchsim.Net.ports net and fabrics = Switchsim.Net.k net in
  (match validate ~fabrics ~ports ~coflows t with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fault_plan.compile: " ^ msg));
  let words = Matrix.Bits.words_for ports in
  let base = ref 0 in
  for f = 0 to fabrics - 1 do
    base :=
      !base
      +
      match Switchsim.Net.core_capacity net f with
      | Some c -> c
      | None -> ports
  done;
  (* [until = slot = 0]: an empty window, so the first refresh computes *)
  { events =
      List.filter
        (function
          | Link_degraded { src; dst; _ } -> carried ~src ~dst | _ -> true)
        t.events;
    ports;
    words;
    base = !base;
    up = Array.make words 0;
    off = Array.make (ports * words) 0;
    dead = Array.make fabrics false;
    budget = !base;
    slot = 0;
    until = 0;
  }

(* A degraded core caps inter-rack transfers on an oversubscribed fabric
   and every transfer on a non-blocking one (aggregate switch
   degradation). *)
let core_counts net ~fabric ~src ~dst =
  match Switchsim.Net.core_capacity net fabric with
  | None -> true
  | Some _ -> Switchsim.Net.crosses_core net ~fabric ~src ~dst

(* a change point after [slot] ends the window early *)
let edge st ~slot x = if x > slot && x < st.until then st.until <- x

let rec apply st ~slot = function
  | [] -> ()
  | e :: rest ->
    (match e with
    | Port_down { port; from_; until } ->
      edge st ~slot from_;
      edge st ~slot until;
      if active ~from_ ~until slot then begin
        let w = Matrix.Bits.word_of port in
        st.up.(w) <- st.up.(w) land lnot (1 lsl Matrix.Bits.bit_of port)
      end
    | Link_degraded { src; dst; from_; until; period = _ } ->
      edge st ~slot from_;
      edge st ~slot until;
      if active ~from_ ~until slot then begin
        (* the pair's duty cycle follows its largest active period: usable
           at that period's multiples, so it flips at the next multiple,
           or right after this slot when this slot is one *)
        let p = link_period_in st.events ~slot ~src ~dst 1 in
        let r = slot mod p in
        edge st ~slot (if r = 0 then slot + 1 else slot + p - r);
        if r <> 0 then begin
          let w = (src * st.words) + Matrix.Bits.word_of dst in
          st.off.(w) <- st.off.(w) lor (1 lsl Matrix.Bits.bit_of dst)
        end
      end
    | Core_degraded { from_; until; capacity } ->
      edge st ~slot from_;
      edge st ~slot until;
      if active ~from_ ~until slot then st.budget <- min st.budget capacity
    | Fabric_down { fabric; from_; until } ->
      edge st ~slot from_;
      edge st ~slot until;
      if active ~from_ ~until slot then st.dead.(fabric) <- true
    | Straggler { at; _ } -> edge st ~slot at
    | Release_delay _ | Solver_outage _ -> ());
    apply st ~slot rest

let refresh st ~slot =
  if slot < st.slot || slot >= st.until then begin
    let bpw = Matrix.Bits.bits_per_word in
    for w = 0 to st.words - 1 do
      st.up.(w) <- Matrix.Bits.low_mask (min bpw (st.ports - (w * bpw)))
    done;
    Array.fill st.off 0 (Array.length st.off) 0;
    Array.fill st.dead 0 (Array.length st.dead) false;
    st.budget <- st.base;
    st.slot <- slot;
    st.until <- max_int;
    apply st ~slot st.events
  end

let stable_until st = st.until

let port_up_word st w = st.up.(w)

let off_duty_word st ~src w = st.off.((src * st.words) + w)

let fabric_dead st f = st.dead.(f)

let core_budget st = st.budget

(* ---------- seeded random plans ---------- *)

let random ?(intensity = 1.0) ?(fabrics = 1) ~ports ~coflows ~horizon st =
  if intensity < 0.0 then invalid_arg "Fault_plan.random: negative intensity";
  if ports <= 0 then invalid_arg "Fault_plan.random: ports must be positive";
  if intensity = 0.0 then empty
  else begin
    let horizon = max 8 horizon in
    let count per = int_of_float (Float.round (intensity *. per)) in
    let interval max_len =
      let from_ = Random.State.int st horizon in
      let len = 1 + Random.State.int st (max 1 max_len) in
      (from_, from_ + len)
    in
    let events = ref [] in
    let push e = events := e :: !events in
    (* port outages: short-lived, never permanent *)
    for _ = 1 to count (float_of_int ports /. 6.0) do
      let port = Random.State.int st ports in
      let from_, until = interval (horizon / 6) in
      push (Port_down { port; from_; until })
    done;
    (* per-link slowdowns *)
    for _ = 1 to count (float_of_int ports /. 4.0) do
      let src = Random.State.int st ports in
      let dst = Random.State.int st ports in
      let from_, until = interval (horizon / 4) in
      let period = 2 + Random.State.int st 3 in
      push (Link_degraded { src; dst; from_; until; period })
    done;
    (* core-capacity degradation, deeper with intensity *)
    if intensity >= 0.5 then begin
      let capacity =
        max 1 (int_of_float (float_of_int ports /. (1.0 +. intensity)))
      in
      let from_, until = interval (horizon / 3) in
      push (Core_degraded { from_; until; capacity })
    end;
    (* stragglers: announced demand doubles mid-run *)
    for _ = 1 to count (float_of_int coflows /. 12.0) do
      let coflow = Random.State.int st (max 1 coflows) in
      let at = Random.State.int st (max 1 (horizon / 2)) in
      push (Straggler { coflow; at; factor = 2 })
    done;
    (* delayed releases *)
    for _ = 1 to count (float_of_int coflows /. 16.0) do
      let coflow = Random.State.int st (max 1 coflows) in
      let delay = 1 + Random.State.int st (max 1 (horizon / 10)) in
      push (Release_delay { coflow; delay })
    done;
    (* whole-fabric outages, only on multi-fabric nets (drawn after the
       single-fabric kinds so single-fabric plans are unchanged per seed) *)
    if fabrics > 1 && intensity >= 0.5 then begin
      let fabric = 1 + Random.State.int st (fabrics - 1) in
      let from_, until = interval (horizon / 4) in
      push (Fabric_down { fabric; from_; until })
    end;
    (* solver outages: the LP tier goes first, the stats plane second *)
    if intensity >= 0.75 then begin
      let from_, until = interval (horizon / 4) in
      push (Solver_outage { from_; until; full = false })
    end;
    if intensity >= 1.5 then begin
      let from_, until = interval (horizon / 6) in
      push (Solver_outage { from_; until; full = true })
    end;
    { events = List.rev !events }
  end

(* Chrome trace-event writer (the JSON format Perfetto's ui.perfetto.dev
   loads directly).  Two timelines coexist as two "processes":

     pid 1 — wall clock: span invocations as complete ("X") events, ts in
             microseconds since the trace was enabled;
     pid 2 — simulated time: slot/fault/coflow events, 1 slot = 1000 us so
             per-slot structure is visible at default zoom.

   Events are rendered to their final JSON fragment at record time (we only
   pay when tracing is on) and joined into one document by [to_json]. *)

let flag = Atomic.make false

let origin_ns = Atomic.make 0

let set_enabled b =
  if b && not (Atomic.get flag) then Atomic.set origin_ns (Clock.now_ns ());
  Atomic.set flag b

let enabled () = Atomic.get flag

let lock = Mutex.create ()

let events : string list ref = ref []

let n_events = ref 0

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let push_global ev =
  with_lock (fun () ->
      events := ev :: !events;
      incr n_events)

(* Per-domain capture redirection, mirroring {!Events.capture}: parallel
   engine jobs buffer their rendered events locally and the join re-injects
   them in job order, keeping the trace document deterministic. *)
let local : string list ref option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let push ev =
  if Atomic.get flag then
    match !(Domain.DLS.get local) with
    | Some buf -> buf := ev :: !buf
    | None -> push_global ev

let capture f =
  let cell = Domain.DLS.get local in
  let saved = !cell in
  let buf = ref [] in
  cell := Some buf;
  let finally () = cell := saved in
  let v = Fun.protect ~finally f in
  (v, List.rev !buf)

let append evs = if Atomic.get flag then List.iter push_global evs

let length () = with_lock (fun () -> !n_events)

let reset () =
  with_lock (fun () ->
      events := [];
      n_events := 0)

let wall_us ns = float_of_int (ns - Atomic.get origin_ns) /. 1e3

(* Simulated slot [s] is rendered at ts = s * 1000 us. *)
let slot_us slot = float_of_int slot *. 1000.0

let args_json args =
  match args with
  | [] -> ""
  | _ ->
    let fields =
      List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" (Json.escape k) v) args
    in
    Printf.sprintf ",\"args\":{%s}" (String.concat "," fields)

let complete ~name ~cat ~start_ns ~dur_ns =
  push
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
        \"ts\":%.3f,\"dur\":%.3f}"
       (Json.escape name) (Json.escape cat) (wall_us start_ns)
       (float_of_int dur_ns /. 1e3))

let instant ?(args = []) ~name ~cat ~slot () =
  push
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"p\",\"pid\":2,\
        \"tid\":1,\"ts\":%.1f%s}"
       (Json.escape name) (Json.escape cat) (slot_us slot) (args_json args))

let counter ~name ~slot values =
  push
    (Printf.sprintf
       "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":2,\"tid\":1,\"ts\":%.1f%s}"
       (Json.escape name) (slot_us slot)
       (args_json (List.map (fun (k, v) -> (k, string_of_int v)) values)))

let async ph ~name ~cat ~id ~slot =
  push
    (Printf.sprintf
       "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%c\",\"id\":%d,\"pid\":2,\
        \"tid\":1,\"ts\":%.1f}"
       (Json.escape name) (Json.escape cat) ph id (slot_us slot))

let async_begin ~name ~cat ~id ~slot = async 'b' ~name ~cat ~id ~slot

let async_end ~name ~cat ~id ~slot = async 'e' ~name ~cat ~id ~slot

(* Process/thread naming metadata so the two timelines are labelled in the
   UI.  Emitted at export, not recorded, so they survive [reset]. *)
let metadata =
  [ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
     \"args\":{\"name\":\"wall clock (spans)\"}}";
    "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\
     \"args\":{\"name\":\"simulator (slot time, 1 slot = 1ms)\"}}";
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
     \"args\":{\"name\":\"spans\"}}";
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\
     \"args\":{\"name\":\"slots\"}}";
  ]

let to_json () =
  let recorded = with_lock (fun () -> List.rev !events) in
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  let all = metadata @ recorded in
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf ev)
    all;
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ()))

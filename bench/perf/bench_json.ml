(* The result object every workload run prints as its last line, and the
   run file [perf.exe run] writes, both read back through Obs.Json. *)

type metric = { name : string; unit_ : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

(* Every digit of the measured double: [%.17g] round-trips exactly. *)
let number v =
  if not (Float.is_finite v) then invalid_arg "Bench_json.number: not finite";
  Printf.sprintf "%.17g" v

let quote s = "\"" ^ Obs.Json.escape s ^ "\""

let result_to_string r =
  let metric m =
    Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote m.name)
      (number m.value) (quote m.unit_)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Obs.Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let to_bool = function Obs.Json.Bool b -> Some b | _ -> None

let to_int j =
  Option.bind (Obs.Json.to_float j) (fun f ->
      if Float.is_integer f then Some (int_of_float f) else None)

let to_obj = function Obs.Json.Obj kv -> Some kv | _ -> None

let result_of_json j =
  let* correct = field "correct" to_bool j in
  let* attempted = field "attempted" to_int j in
  let* failed = field "failed" to_int j in
  let* kv = field "metrics" to_obj j in
  let* metrics =
    List.fold_right
      (fun (name, m) acc ->
        let* acc = acc in
        let* value = field "value" Obs.Json.to_float m in
        let* unit_ = field "unit" Obs.Json.to_string m in
        Ok ({ name; unit_; value } :: acc))
      kv (Ok [])
  in
  Ok { correct; attempted; failed; metrics }

let result_of_string s = Result.bind (Obs.Json.parse s) result_of_json

(* ---- run files: every (set, seed, workload) child result of [run] ---- *)

type run = {
  set : int;  (** 1-based index of the [perf.exe run] invocation *)
  workload : string;
  seed : int;
  traced : bool;
  host_ref_ms : float;
  result : result;
}

let run_to_string r =
  Printf.sprintf
    "{\"set\": %d, \"workload\": %s, \"seed\": %d, \"traced\": %b, \
     \"host_ref_ms\": %s, \"result\": %s}"
    r.set (quote r.workload) r.seed r.traced (number r.host_ref_ms)
    (result_to_string r.result)

let runs_to_string runs =
  "{\"runs\": [\n  " ^ String.concat ",\n  " (List.map run_to_string runs) ^ "\n]}\n"

let run_of_json j =
  let* set = field "set" to_int j in
  let* workload = field "workload" Obs.Json.to_string j in
  let* seed = field "seed" to_int j in
  let* traced = field "traced" to_bool j in
  let* host_ref_ms = field "host_ref_ms" Obs.Json.to_float j in
  let* result = Result.bind (field "result" Option.some j) result_of_json in
  Ok { set; workload; seed; traced; host_ref_ms; result }

let runs_of_string s =
  let* j = Obs.Json.parse s in
  let* items = field "runs" Obs.Json.to_list j in
  List.fold_right
    (fun item acc ->
      let* acc = acc in
      let* r = run_of_json item in
      Ok (r :: acc))
    items (Ok [])

let read_file path = In_channel.with_open_bin path In_channel.input_all

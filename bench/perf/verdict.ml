(* [perf.exe compare]: one verdict per (workload, metric) between two sets
   of runs, with the directions and bounds BENCHMARK.json declares. *)

type direction = Higher | Lower

type spec_metric = {
  name : string;
  better : direction;
  bound : float option;  (** end-to-end metrics only *)
}

let ( let* ) = Result.bind

let spec_of_string s =
  let* j = Obs.Json.parse s in
  let section key ~bounded =
    match Option.bind (Obs.Json.member key j) Obs.Json.to_list with
    | None -> Error (Printf.sprintf "BENCHMARK.json: missing %S" key)
    | Some items ->
      List.fold_right
        (fun item acc ->
          let* acc = acc in
          let str k = Option.bind (Obs.Json.member k item) Obs.Json.to_string in
          match (str "name", str "better") with
          | Some name, Some ("higher" | "lower" as b) ->
            let bound = Option.bind (Obs.Json.member "bound" item) Obs.Json.to_float in
            if bounded && bound = None then
              Error (Printf.sprintf "BENCHMARK.json: %S has no bound" name)
            else
              Ok ({ name; better = (if b = "higher" then Higher else Lower); bound } :: acc)
          | _ -> Error (Printf.sprintf "BENCHMARK.json: malformed entry in %S" key))
        items (Ok [])
  in
  let* e2e = section "end_to_end" ~bounded:true in
  let* layers = section "per_layer" ~bounded:false in
  Ok (e2e @ layers)

type t = Better | Worse | Unchanged | Unresolved

let to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

(* Signed improvement of [b] over [a] as a share of [a]: positive is
   better in the metric's direction. *)
let gain better a b =
  let d = match better with Higher -> b -. a | Lower -> a -. b in
  if a = 0.0 then (if d = 0.0 then 0.0 else Float.copy_sign Float.infinity d)
  else d /. Float.abs a

(* Share of (old, new) pairs in which the new run reads strictly better. *)
let win_share better olds news =
  let wins = ref 0 in
  Array.iter
    (fun o -> Array.iter (fun n -> if gain better o n > 0.0 then incr wins) news)
    olds;
  float_of_int !wins /. float_of_int (Array.length olds * Array.length news)

(* The rules, in order:
   - identical medians are unchanged;
   - with a bound: a median worse by more than the bound is worse; where
     the old runs' own spread exceeds the bound the result is unresolved
     unless every new run reads better than every old one; a gain counts
     when the new runs win nine pairs in ten and the medians differ by
     more than the old runs' spread (by more than the bound when the old
     side has a single run and so no spread); anything else is unchanged;
   - without a bound (per-layer metrics) the old runs' spread is the
     margin both ways, and a single old run leaves any change
     unresolved. *)
let judge ~better ~bound ~olds ~news =
  if Array.length olds = 0 || Array.length news = 0 then
    invalid_arg "Verdict.judge: no runs";
  let g = gain better (Sample.median olds) (Sample.median news) in
  let spread = if Array.length olds >= 2 then Some (Sample.spread olds) else None in
  let wins = win_share better olds news in
  let losses = win_share better news olds in
  if g = 0.0 then Unchanged
  else
    match (bound, spread) with
    | Some b, _ when g < -.b -> Worse
    | Some b, Some s when s > b -> if wins = 1.0 then Better else Unresolved
    | Some b, _ ->
      if wins >= 0.9 && g > Option.value spread ~default:b then Better
      else Unchanged
    | None, None -> Unresolved
    | None, Some s ->
      if wins >= 0.9 && g > s then Better
      else if losses >= 0.9 && -.g > s then Worse
      else Unchanged

open Workload
open Core
open Switchsim

type outcome = { result : Engine.result; checks : (string * bool) list }

type contender = {
  name : string;
  guarantee : float option;
  fallback : string option;
  run : Instance.t -> Net.t -> outcome;
}

type target = Bound | Best_twct

type spec = {
  id : string;
  label : string;
  inst : Instance.t;
  net : Net.t;
  bound_name : string;
  bound : float;
  target : target;
  contenders : contender list;
}

type row = {
  algo : string;
  fallback : string option;
  guarantee : float option;
  twct : float;
  ratio : float;
  slots : int;
  mean_c : float;
  p95_c : int;
  utilization : float;
  matchings : int;
  decisions : int;
  decision_us : float;
  seconds : float;
}

type leg = { spec : spec; rows : row list; checks : (string * bool) list }

let contender name (p : Policy.t) =
  let run inst net =
    let sim =
      Simulator.create ~net ~ports:(Instance.ports inst) (Instance.demands inst)
    in
    { result = Engine.run ~sim inst p; checks = [] }
  in
  { name; guarantee = None; fallback = None; run }

let isolation_bound ~net inst =
  let s = Net.total_rate net in
  Array.fold_left
    (fun acc c ->
      let rho = Matrix.Mat.load c.Instance.demand in
      acc
      +. (c.Instance.weight
         *. float_of_int (c.Instance.release + ((rho + s - 1) / s))))
    0.0 (Instance.coflows inst)

let isolation_leg ~id ~label ~net inst contenders =
  { id;
    label;
    inst;
    net;
    bound_name =
      (if Net.total_rate net = 1 then "sum w(r+rho)" else "sum w(r+ceil(rho/S))");
    bound = isolation_bound ~net inst;
    target = Bound;
    contenders;
  }

let lp_free inst =
  let greedy name order = contender name (Baselines.greedy_policy order) in
  [ { (contender "SG" (Shafiee.policy inst)) with
      guarantee = Some (Shafiee.guarantee_for inst)
    };
    { (contender "Chen" (Chen.policy inst)) with
      guarantee = Some (Chen.guarantee_for inst)
    };
    greedy "H_pd" (Primal_dual.order inst);
    greedy "H_rho" (Ordering.by_load_over_weight inst);
    greedy "H_size" (Ordering.by_total_size inst);
    greedy "H_A" (Ordering.arrival inst);
  ]

let budgeted_hlp ~lp_budget inst =
  match Lp_relax.solve_interval ~max_iterations:lp_budget inst with
  | lp -> ("H_LP", None, Ordering.by_lp lp)
  | exception Failure _ ->
    ("H_LP(fallback:H_rho)", Some "H_rho", Ordering.by_load_over_weight inst)

let slug name =
  String.map
    (fun c -> match c with 'a' .. 'z' | '0' .. '9' -> c | _ -> '_')
    (String.lowercase_ascii name)
  |> String.split_on_char '_'
  |> List.filter (( <> ) "")
  |> String.concat "_"

let row_of spec (c : contender) { result = r; _ } =
  let what = Printf.sprintf "%s on %s" c.name spec.label in
  let decisions = r.Engine.decisions in
  { algo = c.name;
    fallback = c.fallback;
    guarantee = c.guarantee;
    twct = r.Engine.twct;
    ratio = (if spec.bound > 0.0 then r.Engine.twct /. spec.bound else Float.nan);
    slots = r.Engine.slots;
    mean_c = Metrics.mean ~what r.Engine.completion;
    p95_c = Metrics.percentile ~what 0.95 r.Engine.completion;
    utilization = r.Engine.utilization;
    matchings = r.Engine.matchings;
    decisions;
    decision_us =
      (if decisions > 0 then r.Engine.seconds /. float_of_int decisions *. 1e6
       else 0.0);
    seconds = r.Engine.seconds;
  }

(* Every row must dominate the bound, every guaranteed row must stay
   within its factor of the target, and every check must hold. *)
let assert_leg { spec; rows; checks } =
  let target =
    match spec.target with
    | Bound -> spec.bound
    | Best_twct ->
      List.fold_left (fun acc r -> Float.min acc r.twct) Float.infinity rows
  in
  List.iter
    (fun row ->
      if spec.bound > 0.0 && row.twct +. 1e-6 < spec.bound then
        failwith
          (Printf.sprintf
             "%s: %s TWCT %.2f beats the %s lower bound %.2f — bound or \
              scheduler is wrong"
             spec.label row.algo row.twct spec.bound_name spec.bound);
      match row.guarantee with
      | Some g when target > 0.0 && row.twct > (g *. target) +. 1e-6 ->
        failwith
          (Printf.sprintf
             "%s: %s ratio %.3f vs its target exceeds its approximation \
              factor %.2f"
             spec.label row.algo (row.twct /. target) g)
      | _ -> ())
    rows;
  List.iter
    (fun (name, ok) ->
      if not ok then
        failwith (Printf.sprintf "%s: check %S failed" spec.label name))
    checks

let race ~jobs specs =
  let outcomes =
    Engine.run_many ~jobs
      (List.concat
         (List.mapi
            (fun i spec ->
              List.map
                (fun c () -> (i, c, c.run spec.inst spec.net))
                spec.contenders)
            specs))
  in
  List.mapi
    (fun i spec ->
      let mine = List.filter (fun (j, _, _) -> j = i) outcomes in
      let rows =
        List.map (fun (_, c, o) -> row_of spec c o) mine
        |> List.sort (fun a b ->
               match compare a.twct b.twct with
               | 0 -> compare a.algo b.algo
               | c -> c)
      in
      List.iter
        (fun row ->
          Obs.Counter.Gauge.set
            (Obs.Counter.Gauge.make
               (Printf.sprintf "arena.%s.%s.decision_us" spec.id
                  (slug row.algo)))
            row.decision_us)
        rows;
      let leg =
        { spec;
          rows;
          checks = List.concat_map (fun (_, _, (o : outcome)) -> o.checks) mine;
        }
      in
      assert_leg leg;
      leg)
    specs

(* ---------- render ---------- *)

let render_leg { spec; rows; checks } =
  Report.table
    ~title:
      (Printf.sprintf "%s — ranked vs %s = %.2f" spec.label spec.bound_name
         spec.bound)
    ~header:
      [ "rank"; "algo"; "guar"; "TWCT"; "ratio"; "slots"; "mean C"; "p95 C";
        "util"; "matchings"; "decisions"; "us/dec"; "seconds";
      ]
    (List.mapi
       (fun i row ->
         [ string_of_int (i + 1);
           row.algo;
           Option.fold ~none:"-" ~some:(Printf.sprintf "%.2f") row.guarantee;
           Report.f2 row.twct;
           (if Float.is_nan row.ratio then "-" else Report.f4 row.ratio);
           string_of_int row.slots;
           Report.f2 row.mean_c;
           string_of_int row.p95_c;
           Report.pct row.utilization;
           string_of_int row.matchings;
           string_of_int row.decisions;
           Printf.sprintf "%.1f" row.decision_us;
           Printf.sprintf "%.3f" row.seconds;
         ])
       rows)
  ^
  if checks = [] then ""
  else
    "checks: "
    ^ String.concat ", "
        (List.map (fun (name, ok) -> Printf.sprintf "%s=%b" name ok) checks)
    ^ "\n"

let render legs = String.concat "\n" (List.map render_leg legs)

(* ---------- JSON ---------- *)

let json_str s = "\"" ^ Obs.Json.escape s ^ "\""

(* shortest of %.15g / %.17g that reads back exactly; non-finite -> null *)
let json_num f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let json_opt f = Option.fold ~none:"null" ~some:f

let json_obj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields)
  ^ "}"

let json_arr items = "[" ^ String.concat "," items ^ "]"

let json_fabric net f =
  let fb = Net.fabric_of net f in
  json_obj
    [ ("rate", string_of_int fb.Net.rate);
      ("rack_size", json_opt string_of_int fb.Net.rack_size);
      ("core_capacity", json_opt string_of_int fb.Net.core_capacity);
    ]

let json_row i row =
  json_obj
    [ ("rank", string_of_int (i + 1));
      ("algo", json_str row.algo);
      ("fallback", json_opt json_str row.fallback);
      ("guarantee", json_opt json_num row.guarantee);
      ("twct", json_num row.twct);
      ("ratio", json_num row.ratio);
      ("slots", string_of_int row.slots);
      ("mean_completion", json_num row.mean_c);
      ("p95_completion", string_of_int row.p95_c);
      ("utilization", json_num row.utilization);
      ("matchings", string_of_int row.matchings);
      ("decisions", string_of_int row.decisions);
      ("decision_us", json_num row.decision_us);
      ("seconds", json_num row.seconds);
    ]

let json_leg { spec; rows; checks } =
  json_obj
    [ ("id", json_str spec.id);
      ("label", json_str spec.label);
      ("ports", string_of_int (Instance.ports spec.inst));
      ("coflows", string_of_int (Instance.num_coflows spec.inst));
      ("net", json_arr (List.init (Net.k spec.net) (json_fabric spec.net)));
      ( "bound",
        json_obj
          [ ("name", json_str spec.bound_name); ("value", json_num spec.bound) ]
      );
      ( "target",
        json_str
          (match spec.target with Bound -> "bound" | Best_twct -> "best_twct")
      );
      ("rows", json_arr (List.mapi json_row rows));
      ( "checks",
        json_obj (List.map (fun (k, ok) -> (k, string_of_bool ok)) checks) );
    ]

let json ~experiment legs =
  json_obj
    [ ("experiment", json_str experiment);
      ("legs", json_arr (List.map json_leg legs));
    ]
  ^ "\n"

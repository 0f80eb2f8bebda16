(* Tests for instances, traces, weights and the synthetic generators. *)

open Matrix
open Workload

let check_int = Alcotest.(check int)

let mk_coflow ?(id = 0) ?(release = 0) ?(weight = 1.0) rows =
  { Instance.id; release; weight; demand = Mat.of_arrays rows }

let small_instance () =
  Instance.make ~ports:2
    [ mk_coflow ~id:0 [| [| 1; 2 |]; [| 2; 1 |] |];
      mk_coflow ~id:1 ~weight:2.0 [| [| 0; 1 |]; [| 0; 0 |] |];
    ]

let test_make () =
  let inst = small_instance () in
  check_int "ports" 2 (Instance.ports inst);
  check_int "coflows" 2 (Instance.num_coflows inst);
  check_int "units" 7 (Instance.total_units inst);
  check_int "horizon" 7 (Instance.horizon inst)

let test_make_validation () =
  let bad f = try f (); Alcotest.fail "expected Invalid_argument" with
    | Invalid_argument _ -> ()
  in
  bad (fun () ->
      ignore (Instance.make ~ports:3 [ mk_coflow [| [| 1; 2 |]; [| 2; 1 |] |] ]));
  bad (fun () ->
      ignore (Instance.make ~ports:2 [ mk_coflow ~weight:0.0 [| [| 1; 2 |]; [| 2; 1 |] |] ]));
  bad (fun () ->
      ignore (Instance.make ~ports:2 [ mk_coflow ~release:(-1) [| [| 1; 2 |]; [| 2; 1 |] |] ]));
  bad (fun () ->
      ignore
        (Instance.make ~ports:2
           [ mk_coflow ~id:7 [| [| 1; 0 |]; [| 0; 0 |] |];
             mk_coflow ~id:7 [| [| 0; 1 |]; [| 0; 0 |] |];
           ]))

let test_filter_m0 () =
  let inst = small_instance () in
  let filtered = Instance.filter_m0 inst 2 in
  check_int "only wide coflow kept" 1 (Instance.num_coflows filtered);
  check_int "the 4-flow coflow" 0 (Instance.coflow filtered 0).Instance.id;
  check_int "filter 1 keeps both" 2
    (Instance.num_coflows (Instance.filter_m0 inst 1));
  check_int "filter 5 keeps none" 0
    (Instance.num_coflows (Instance.filter_m0 inst 5))

let test_with_weights () =
  let inst = Instance.with_weights (small_instance ()) [| 3.0; 4.0 |] in
  Alcotest.(check (array (float 0.0))) "weights" [| 3.0; 4.0 |]
    (Instance.weights inst)

let test_with_zero_releases () =
  let inst =
    Instance.make ~ports:2 [ mk_coflow ~release:5 [| [| 1; 0 |]; [| 0; 0 |] |] ]
  in
  Alcotest.(check (array int)) "zeroed" [| 0 |]
    (Instance.releases (Instance.with_zero_releases inst))

let test_horizon_with_releases () =
  let inst =
    Instance.make ~ports:2 [ mk_coflow ~release:10 [| [| 1; 0 |]; [| 0; 0 |] |] ]
  in
  check_int "horizon" 11 (Instance.horizon inst)

(* [total_units] and [horizon] sum over coflows: an instance whose sums
   would pass max_int is refused at the coflow that pushes them past,
   instead of loading with a wrapped total. *)
let test_make_total_overflow () =
  let half = 1 lsl 61 in
  let one ?(release = 0) id v =
    { Instance.id; release; weight = 1.0;
      demand = Mat.of_arrays [| [| v; 0 |]; [| 0; 0 |] |] }
  in
  let refused label cs =
    match Instance.make ~ports:2 cs with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (label ^ ": names coflow 1") true
        (Astring.String.is_infix ~affix:"coflow 1 pushes" msg)
  in
  refused "units" [ one 0 half; one 1 half ];
  refused "release plus units" [ one 0 half; one ~release:half 1 (half - 1) ];
  (* right at the limit is still an instance *)
  let inst = Instance.make ~ports:2 [ one 0 half; one ~release:1 1 (half - 2) ] in
  check_int "units at the limit" (max_int - 1) (Instance.total_units inst);
  check_int "horizon at the limit" max_int (Instance.horizon inst)

(* ---------- weights ---------- *)

let test_weights_equal () =
  Alcotest.(check (array (float 0.0))) "ones" [| 1.0; 1.0; 1.0 |]
    (Weights.equal 3)

let test_weights_permutation () =
  let st = Random.State.make [| 42 |] in
  let w = Weights.random_permutation st 10 in
  let sorted = Array.copy w in
  Array.sort compare sorted;
  Alcotest.(check (array (float 0.0)))
    "a permutation of 1..10"
    (Array.init 10 (fun i -> float_of_int (i + 1)))
    sorted

let test_weights_deterministic () =
  let w1 = Weights.random_permutation (Random.State.make [| 7 |]) 20 in
  let w2 = Weights.random_permutation (Random.State.make [| 7 |]) 20 in
  Alcotest.(check (array (float 0.0))) "same seed same weights" w1 w2

(* ---------- trace IO ---------- *)

let test_trace_roundtrip_fixed () =
  let inst = small_instance () in
  let inst' = Trace.of_string (Trace.to_string inst) in
  check_int "ports" (Instance.ports inst) (Instance.ports inst');
  check_int "coflows" (Instance.num_coflows inst) (Instance.num_coflows inst');
  Array.iteri
    (fun k c ->
      let c' = Instance.coflow inst' k in
      check_int "id" c.Instance.id c'.Instance.id;
      check_int "release" c.Instance.release c'.Instance.release;
      Alcotest.(check (float 1e-12)) "weight" c.Instance.weight c'.Instance.weight;
      Alcotest.(check bool) "demand" true
        (Mat.equal c.Instance.demand c'.Instance.demand))
    (Instance.coflows inst)

let test_trace_file_roundtrip () =
  let inst = small_instance () in
  let path = Filename.temp_file "coflow" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path inst;
      let inst' = Trace.load path in
      check_int "coflows" 2 (Instance.num_coflows inst'))

let test_trace_bad_header () =
  (try
     ignore (Trace.of_string "garbage\n1 0\n");
     Alcotest.fail "expected Failure"
   with Failure _ -> ())

let test_trace_truncated () =
  let s = Trace.to_string (small_instance ()) in
  let truncated = String.sub s 0 (String.length s - 4) in
  (try
     ignore (Trace.of_string truncated);
     Alcotest.fail "expected Failure"
   with Failure _ -> ())

let test_trace_trailing () =
  let s = Trace.to_string (small_instance ()) ^ "0 0 1\n" in
  (try
     ignore (Trace.of_string s);
     Alcotest.fail "expected Failure"
   with Failure _ -> ())

let test_trace_rejects_invalid_records () =
  (* each case: (label, trace text); all must fail with a line-numbered
     message, never an assertion or a silent acceptance *)
  let hdr = "coflow-trace v1\n" in
  List.iter
    (fun (label, text) ->
      try
        ignore (Trace.of_string text);
        Alcotest.fail (label ^ ": expected Failure")
      with Failure msg ->
        Alcotest.(check bool)
          (label ^ ": message has a line number") true
          (Astring.String.is_infix ~affix:"line" msg))
    [ ("zero ports", hdr ^ "0 1\n0 0 1.0 1\n0 0 1\n");
      ("negative ports", hdr ^ "-2 0\n");
      ("negative coflow count", hdr ^ "2 -1\n");
      ("negative release", hdr ^ "2 1\n0 -3 1.0 1\n0 0 1\n");
      ("nan weight", hdr ^ "2 1\n0 0 nan 1\n0 0 1\n");
      ("zero weight", hdr ^ "2 1\n0 0 0.0 1\n0 0 1\n");
      ("negative weight", hdr ^ "2 1\n0 0 -1.5 1\n0 0 1\n");
      ("negative nnz", hdr ^ "2 1\n0 0 1.0 -1\n");
      ("src out of range", hdr ^ "2 1\n0 0 1.0 1\n2 0 1\n");
      ("dst out of range", hdr ^ "2 1\n0 0 1.0 1\n0 -1 1\n");
      ("zero flow size", hdr ^ "2 1\n0 0 1.0 1\n0 0 0\n");
      ("negative flow size", hdr ^ "2 1\n0 0 1.0 1\n0 0 -4\n");
      ( "duplicate coflow id",
        hdr ^ "2 2\n7 0 1.0 1\n0 0 1\n7 0 1.0 1\n1 1 1\n" );
    ]

(* A flow repeated within one coflow, and a flow that would push its
   coflow's total past max_int, are named errors on their own line:
   unchecked, the first merges silently (the last size wins) and the
   second wraps the row sum negative.  Blank lines count, so an error
   after them names its line in the file. *)
let test_trace_flow_errors () =
  let hdr = "coflow-trace v1\n2 1\n0 0 1 2\n" in
  List.iter
    (fun (label, text, want) ->
      match Trace.of_string text with
      | _ -> Alcotest.failf "%s: expected Failure" label
      | exception Failure msg ->
        if not (Astring.String.is_infix ~affix:want msg) then
          Alcotest.failf "%s: %S lacks %S" label msg want)
    [ ( "duplicate flow",
        hdr ^ "0 1 5\n0 1 3\n",
        "line 5: duplicate flow (0, 1)" );
      ( "total past max_int",
        Printf.sprintf "%s0 0 %d\n0 1 %d\n" hdr max_int max_int,
        "line 5: Mat: entry (0, 1) would push the total past max_int" );
      ( "instance total past max_int",
        Printf.sprintf "coflow-trace v1\n2 2\n0 0 1 1\n0 1 %d\n1 0 1 1\n1 0 %d\n"
          (1 lsl 61) (1 lsl 61),
        "line 5: coflow 1 pushes the total units" );
      ( "flow after blank lines",
        "coflow-trace v1\n\n2 1\n\n0 0 1.0 1\n0 5 3\n",
        "line 6: port out of range" );
      ( "trailing content after blank lines",
        "coflow-trace v1\n2 1\n0 0 1.0 1\n0 1 3\n\n\nextra\n",
        "line 7: trailing content" );
    ]

(* ---------- generators ---------- *)

let test_uniform_shape () =
  let st = Random.State.make [| 1 |] in
  let inst = Synthetic.uniform ~ports:6 ~coflows:5 st in
  check_int "coflows" 5 (Instance.num_coflows inst);
  check_int "ports" 6 (Instance.ports inst)

let test_mapreduce_width () =
  let st = Random.State.make [| 2 |] in
  let d = Synthetic.mapreduce ~ports:8 ~mappers:3 ~reducers:2 st in
  check_int "exactly mappers*reducers flows" 6 (Mat.nonzero_count d)

let test_sample_ports_distinct () =
  let st = Random.State.make [| 3 |] in
  let s = Synthetic.sample_ports st 10 10 in
  let sorted = Array.copy s in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "all ports" (Array.init 10 (fun i -> i)) sorted

let test_fb_like_deterministic () =
  let gen seed =
    Fb_like.generate ~ports:12 ~coflows:30 (Random.State.make [| seed |])
  in
  let a = gen 5 and b = gen 5 in
  Alcotest.(check string) "same seed same trace" (Trace.to_string a)
    (Trace.to_string b);
  let c = gen 6 in
  Alcotest.(check bool) "different seed differs" true
    (Trace.to_string a <> Trace.to_string c)

let test_fb_like_mix () =
  (* With enough coflows the wide/narrow mix must show up: some coflows much
     wider than others. *)
  let st = Random.State.make [| 11 |] in
  let inst = Fb_like.generate ~ports:16 ~coflows:120 st in
  let widths =
    Array.map
      (fun c -> Mat.nonzero_count c.Instance.demand)
      (Instance.coflows inst)
  in
  let max_w = Array.fold_left max 0 widths in
  let min_w = Array.fold_left min max_int widths in
  Alcotest.(check bool) "wide coflows exist" true (max_w >= 16);
  Alcotest.(check bool) "narrow coflows exist" true (min_w <= 4)

let test_fb_like_arrivals_monotone () =
  let st = Random.State.make [| 13 |] in
  let inst =
    Fb_like.generate_with_arrivals ~mean_gap:10 ~ports:8 ~coflows:40 st
  in
  let rel = Instance.releases inst in
  let ok = ref true in
  for k = 1 to Array.length rel - 1 do
    if rel.(k) < rel.(k - 1) then ok := false
  done;
  Alcotest.(check bool) "nondecreasing arrivals" true !ok;
  Alcotest.(check bool) "some spread" true
    (rel.(Array.length rel - 1) > 0)

(* ---------- DAGs ---------- *)

let diamond_dag () =
  (* 0 -> {1, 2} -> 3 *)
  let d v = Mat.of_arrays [| [| v; 0 |]; [| 0; v |] |] in
  Dag.make ~ports:2
    [ { Dag.id = 10; weight = 1.0; demand = d 1; deps = [] };
      { Dag.id = 11; weight = 1.0; demand = d 2; deps = [ 10 ] };
      { Dag.id = 12; weight = 1.0; demand = d 3; deps = [ 10 ] };
      { Dag.id = 13; weight = 2.0; demand = d 1; deps = [ 11; 12 ] };
    ]

let test_dag_structure () =
  let dag = diamond_dag () in
  check_int "stages" 4 (Dag.num_stages dag);
  Alcotest.(check (list int)) "roots" [ 0 ] (Dag.roots dag);
  Alcotest.(check (list int)) "sinks" [ 3 ] (Dag.sinks dag);
  Alcotest.(check (list int)) "succ of 0" [ 1; 2 ] (Dag.successors_of dag 0);
  Alcotest.(check (list int)) "deps of 3" [ 1; 2 ] (Dag.deps_of dag 3);
  check_int "id lookup" 2 (Dag.index_of_id dag 12)

let test_dag_topological () =
  let dag = diamond_dag () in
  let order = Dag.topological_order dag in
  let pos k =
    let rec find i = function
      | [] -> -1
      | x :: rest -> if x = k then i else find (i + 1) rest
    in
    find 0 order
  in
  Alcotest.(check bool) "deps first" true
    (pos 0 < pos 1 && pos 0 < pos 2 && pos 1 < pos 3 && pos 2 < pos 3)

let test_dag_critical_path () =
  let dag = diamond_dag () in
  (* loads are 1, 2, 3, 1; longest downstream paths: 0: 1+3+1; 1: 2+1;
     2: 3+1; 3: 1 *)
  Alcotest.(check (array int)) "critical path loads" [| 5; 3; 4; 1 |]
    (Dag.critical_path_load dag)

let test_dag_cycle_rejected () =
  let d = Mat.of_arrays [| [| 1 |] |] in
  (try
     ignore
       (Dag.make ~ports:1
          [ { Dag.id = 0; weight = 1.0; demand = d; deps = [ 1 ] };
            { Dag.id = 1; weight = 1.0; demand = d; deps = [ 0 ] };
          ]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument msg ->
     Alcotest.(check bool) "mentions cycle" true
       (Astring.String.is_infix ~affix:"cycle" msg))

let test_dag_validation () =
  let d = Mat.of_arrays [| [| 1 |] |] in
  let bad f =
    try
      f ();
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  bad (fun () ->
      ignore
        (Dag.make ~ports:1
           [ { Dag.id = 0; weight = 1.0; demand = d; deps = [ 9 ] } ]));
  bad (fun () ->
      ignore
        (Dag.make ~ports:1
           [ { Dag.id = 0; weight = 1.0; demand = d; deps = [ 0 ] } ]));
  bad (fun () ->
      ignore
        (Dag.make ~ports:2
           [ { Dag.id = 0; weight = 1.0; demand = d; deps = [] } ]))

let test_dag_random_wellformed () =
  let st = Random.State.make [| 31 |] in
  let dag = Dag.random ~stages_per_job:4 ~jobs:5 ~ports:6 st in
  check_int "20 stages" 20 (Dag.num_stages dag);
  (* topological order exists by construction (make validated it) *)
  check_int "order covers all" 20 (List.length (Dag.topological_order dag))

(* ---------- stats ---------- *)

let test_stats_summary () =
  let inst = small_instance () in
  let s = Stats.summarize inst in
  check_int "coflows" 2 s.Stats.coflows;
  check_int "total" 7 s.Stats.total_units;
  check_int "width min" 1 s.Stats.width_min;
  check_int "width max" 4 s.Stats.width_max;
  check_int "size max" 6 s.Stats.size_max;
  Alcotest.(check bool) "imbalance at least 1" true
    (s.Stats.mean_port_imbalance >= 1.0 -. 1e-9)

let test_stats_empty_rejected () =
  let inst = Instance.make ~ports:2 [] in
  (try
     ignore (Stats.summarize inst);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_stats_histogram () =
  let inst = small_instance () in
  let h = Stats.width_histogram ~buckets:[ 2; max_int ] inst in
  Alcotest.(check (list (pair int int))) "buckets"
    [ (2, 1); (max_int, 1) ]
    h

let test_stats_fb_shape () =
  (* the generator must keep the published heavy-tail shape *)
  let st = Random.State.make [| 21 |] in
  let inst = Fb_like.generate ~ports:20 ~coflows:150 st in
  let s = Stats.summarize inst in
  Alcotest.(check bool) "heavy tail" true (s.Stats.bytes_in_top_decile > 0.3);
  Alcotest.(check bool) "skewed coflows" true
    (s.Stats.mean_port_imbalance > 2.0)

(* ---------- properties ---------- *)

let instance_gen =
  QCheck.Gen.(
    let* ports = int_range 2 8 in
    let* coflows = int_range 1 12 in
    let* seed = int_range 0 1_000_000 in
    let st = Random.State.make [| seed |] in
    return (Synthetic.uniform ~ports ~coflows st))

let arb_instance =
  QCheck.make
    ~print:(fun i -> Format.asprintf "%a" Instance.pp_summary i)
    instance_gen

let prop_trace_roundtrip =
  QCheck.Test.make ~name:"trace round-trips" ~count:100 arb_instance (fun inst ->
      let inst' = Trace.of_string (Trace.to_string inst) in
      Trace.to_string inst = Trace.to_string inst')

let prop_filter_monotone =
  QCheck.Test.make ~name:"filter_m0 is antitone in the threshold" ~count:100
    arb_instance (fun inst ->
      let n k = Instance.num_coflows (Instance.filter_m0 inst k) in
      n 1 >= n 3 && n 3 >= n 6)

let prop_horizon_bounds =
  QCheck.Test.make ~name:"horizon >= any single coflow's work" ~count:100
    arb_instance (fun inst ->
      let h = Instance.horizon inst in
      Array.for_all
        (fun c ->
          h >= c.Instance.release + Mat.load c.Instance.demand)
        (Instance.coflows inst))

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_trace_roundtrip; prop_filter_monotone; prop_horizon_bounds ]

let () =
  Alcotest.run "workload"
    [ ( "instance",
        [ Alcotest.test_case "make" `Quick test_make;
          Alcotest.test_case "validation" `Quick test_make_validation;
          Alcotest.test_case "filter_m0" `Quick test_filter_m0;
          Alcotest.test_case "with_weights" `Quick test_with_weights;
          Alcotest.test_case "zero releases" `Quick test_with_zero_releases;
          Alcotest.test_case "horizon with releases" `Quick
            test_horizon_with_releases;
          Alcotest.test_case "totals past max_int" `Quick
            test_make_total_overflow;
        ] );
      ( "weights",
        [ Alcotest.test_case "equal" `Quick test_weights_equal;
          Alcotest.test_case "permutation" `Quick test_weights_permutation;
          Alcotest.test_case "deterministic" `Quick test_weights_deterministic;
        ] );
      ( "trace",
        [ Alcotest.test_case "roundtrip" `Quick test_trace_roundtrip_fixed;
          Alcotest.test_case "file roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "bad header" `Quick test_trace_bad_header;
          Alcotest.test_case "truncated" `Quick test_trace_truncated;
          Alcotest.test_case "trailing garbage" `Quick test_trace_trailing;
          Alcotest.test_case "invalid records rejected" `Quick
            test_trace_rejects_invalid_records;
          Alcotest.test_case "named flow errors" `Quick test_trace_flow_errors;
        ] );
      ( "generators",
        [ Alcotest.test_case "uniform shape" `Quick test_uniform_shape;
          Alcotest.test_case "mapreduce width" `Quick test_mapreduce_width;
          Alcotest.test_case "sample_ports distinct" `Quick
            test_sample_ports_distinct;
          Alcotest.test_case "fb_like deterministic" `Quick
            test_fb_like_deterministic;
          Alcotest.test_case "fb_like width mix" `Quick test_fb_like_mix;
          Alcotest.test_case "fb_like arrivals" `Quick
            test_fb_like_arrivals_monotone;
        ] );
      ( "dag",
        [ Alcotest.test_case "structure" `Quick test_dag_structure;
          Alcotest.test_case "topological order" `Quick test_dag_topological;
          Alcotest.test_case "critical path" `Quick test_dag_critical_path;
          Alcotest.test_case "cycle rejected" `Quick test_dag_cycle_rejected;
          Alcotest.test_case "validation" `Quick test_dag_validation;
          Alcotest.test_case "random generator" `Quick
            test_dag_random_wellformed;
        ] );
      ( "stats",
        [ Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "empty rejected" `Quick test_stats_empty_rejected;
          Alcotest.test_case "histogram" `Quick test_stats_histogram;
          Alcotest.test_case "fb shape" `Quick test_stats_fb_shape;
        ] );
      ("properties", properties);
    ]

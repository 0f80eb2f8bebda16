(* Tests for the observability layer: the monotonic clock, span nesting and
   self-time accounting, counter/gauge registries, histograms, the
   flight-recorder trace, the slot-event ring, the profile artifact and its
   diff — and, crucially, that enabling any of it never changes what the
   schedulers compute. *)

open Workload
open Core

let default_events_capacity = 1 lsl 20

let reset () =
  Obs.Span.reset_all ();
  Obs.Counter.reset_all ();
  Obs.Counter.Gauge.reset_all ();
  Obs.Events.reset ();
  Obs.Events.set_enabled false;
  Obs.Events.set_capacity default_events_capacity;
  Obs.Histogram.reset_all ();
  Obs.Histogram.set_enabled false;
  Obs.Trace.reset ();
  Obs.Trace.set_enabled false

(* ---------- clock ---------- *)

let test_clock_monotonic () =
  let a = Obs.Clock.now_ns () in
  let b = Obs.Clock.now_ns () in
  Alcotest.(check bool) "non-decreasing" true (b >= a);
  Alcotest.(check bool) "positive origin distance" true (a > 0)

let test_clock_advances_across_sleep () =
  (* the property Sys.time (CPU seconds) lacks, and the reason the LP
     deadline moved onto this clock: wall budgets must burn while the
     process sleeps or blocks on IO *)
  let t0 = Obs.Clock.now_ns () in
  Unix.sleepf 0.02;
  let dt = Obs.Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool)
    (Printf.sprintf "sleep visible (%.4fs elapsed)" dt)
    true (dt >= 0.015)

let test_clock_elapsed_units () =
  let t0 = Obs.Clock.now_ns () in
  let ns = Obs.Clock.elapsed_ns ~since:t0 in
  let s = Obs.Clock.elapsed_s ~since:t0 in
  Alcotest.(check bool) "ns nonnegative" true (ns >= 0);
  Alcotest.(check bool) "seconds consistent" true (s < 1.0)

(* ---------- spans ---------- *)

let spin () = Sys.opaque_identity (ignore (Array.init 100 (fun i -> i * i)))

let test_span_nesting_paths () =
  reset ();
  Obs.Span.with_ "outer" (fun () ->
      spin ();
      Obs.Span.with_ "inner" spin;
      Obs.Span.with_ "inner" spin);
  let paths = List.map fst (Obs.Span.dump ()) in
  Alcotest.(check (list string)) "paths" [ "outer"; "outer/inner" ] paths;
  let outer = Option.get (Obs.Span.stats "outer") in
  let inner = Option.get (Obs.Span.stats "outer/inner") in
  Alcotest.(check int) "outer count" 1 outer.Obs.Span.count;
  Alcotest.(check int) "inner count" 2 inner.Obs.Span.count;
  (* the parent's children time is exactly the inner spans' total, so self
     time never double-counts *)
  Alcotest.(check int) "children = inner total" inner.Obs.Span.total_ns
    outer.Obs.Span.children_ns;
  Alcotest.(check bool) "self + children = total" true
    (Obs.Span.self_ns outer + outer.Obs.Span.children_ns
    = outer.Obs.Span.total_ns);
  Alcotest.(check bool) "max <= total" true
    (inner.Obs.Span.max_ns <= inner.Obs.Span.total_ns)

let test_span_same_leaf_distinct_parents () =
  reset ();
  Obs.Span.with_ "a" (fun () -> Obs.Span.with_ "leaf" spin);
  Obs.Span.with_ "b" (fun () -> Obs.Span.with_ "leaf" spin);
  let paths = List.map fst (Obs.Span.dump ()) in
  Alcotest.(check (list string)) "no aggregation across parents"
    [ "a"; "a/leaf"; "b"; "b/leaf" ]
    paths

let test_span_records_on_raise () =
  reset ();
  (try Obs.Span.with_ "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  let s = Option.get (Obs.Span.stats "boom") in
  Alcotest.(check int) "raising span still counted" 1 s.Obs.Span.count;
  (* the stack unwound: a sibling span must not nest under "boom" *)
  Obs.Span.with_ "after" spin;
  Alcotest.(check bool) "stack unwound" true
    (Obs.Span.stats "after" <> None && Obs.Span.stats "boom/after" = None)

let test_span_timed_returns_elapsed () =
  reset ();
  let v, dt = Obs.Span.timed "t" (fun () -> 42) in
  Alcotest.(check int) "value" 42 v;
  Alcotest.(check bool) "elapsed sane" true (dt >= 0.0 && dt < 1.0)

(* ---------- counters and gauges ---------- *)

let test_counter_interned () =
  reset ();
  let a = Obs.Counter.make "test.shared" in
  let b = Obs.Counter.make "test.shared" in
  Obs.Counter.incr a;
  Obs.Counter.incr b ~by:2;
  Alcotest.(check int) "one cell" 3 (Obs.Counter.value a);
  Alcotest.(check string) "name" "test.shared" (Obs.Counter.name a)

let test_counter_reset_keeps_handles () =
  reset ();
  let c = Obs.Counter.make "test.reset" in
  Obs.Counter.incr c ~by:7;
  Obs.Counter.reset_all ();
  Alcotest.(check int) "zeroed" 0 (Obs.Counter.value c);
  Obs.Counter.incr c;
  Alcotest.(check int) "handle survives" 1 (Obs.Counter.value c)

let test_counter_dump_sorted () =
  reset ();
  Obs.Counter.incr (Obs.Counter.make "test.dump.zz") ~by:1;
  Obs.Counter.incr (Obs.Counter.make "test.dump.aa") ~by:2;
  let d =
    List.filter
      (fun (n, _) -> Astring.String.is_prefix ~affix:"test.dump." n)
      (Obs.Counter.dump ())
  in
  Alcotest.(check (list (pair string int))) "sorted"
    [ ("test.dump.aa", 2); ("test.dump.zz", 1) ]
    d

let test_gauge () =
  reset ();
  let g = Obs.Counter.Gauge.make "test.util" in
  Obs.Counter.Gauge.set g 0.75;
  Alcotest.(check (float 0.0)) "last write wins" 0.75
    (Obs.Counter.Gauge.value g);
  Obs.Counter.Gauge.reset_all ();
  Alcotest.(check (float 0.0)) "reset" 0.0 (Obs.Counter.Gauge.value g)

(* ---------- histograms ---------- *)

let test_hist_disabled_by_default () =
  reset ();
  let h = Obs.Histogram.make "test.h.off" in
  Obs.Histogram.observe h 5;
  Alcotest.(check int) "no-op while disabled" 0 (Obs.Histogram.count h)

let test_hist_buckets_exact_below_32 () =
  (* values 0..31 each own a singleton bucket: recording them loses nothing *)
  for v = 0 to 31 do
    Alcotest.(check int)
      (Printf.sprintf "bucket %d is singleton" v)
      v
      (Obs.Histogram.bucket_hi (Obs.Histogram.bucket_of v))
  done;
  let distinct =
    List.sort_uniq compare
      (List.init 32 (fun v -> Obs.Histogram.bucket_of v))
  in
  Alcotest.(check int) "32 distinct buckets" 32 (List.length distinct)

let test_hist_bucket_bounds () =
  (* above 32 buckets quantize, but deterministically and within ~1/16 of
     the value: v <= hi(bucket(v)) and the over-approximation is < v/16+1 *)
  List.iter
    (fun v ->
      let b = Obs.Histogram.bucket_of v in
      let hi = Obs.Histogram.bucket_hi b in
      Alcotest.(check bool)
        (Printf.sprintf "%d <= hi %d" v hi)
        true (v <= hi);
      Alcotest.(check bool)
        (Printf.sprintf "hi %d within 1/16 of %d" hi v)
        true
        (hi - v <= (v / 16) + 1);
      if v > 0 then
        Alcotest.(check bool)
          (Printf.sprintf "buckets monotone at %d" v)
          true
          (Obs.Histogram.bucket_of (v - 1) <= b))
    [ 32; 33; 47; 48; 63; 64; 65; 100; 127; 128; 1000; 4096; 123_456;
      1_000_000_000; max_int / 2;
    ]

let test_hist_percentiles_nearest_rank () =
  reset ();
  Obs.Histogram.set_enabled true;
  let h = Obs.Histogram.make "test.h.rank" in
  (* all values < 32 so buckets are exact and percentiles must equal the
     nearest-rank values of the sorted multiset *)
  List.iter (Obs.Histogram.observe h) [ 9; 1; 5; 3; 7; 2; 8; 31; 0; 4 ];
  Alcotest.(check int) "count" 10 (Obs.Histogram.count h);
  Alcotest.(check int) "sum" 70 (Obs.Histogram.sum h);
  Alcotest.(check int) "min" 0 (Obs.Histogram.min_value h);
  Alcotest.(check int) "max" 31 (Obs.Histogram.max_value h);
  (* sorted: 0 1 2 3 4 5 7 8 9 31; rank ceil(0.5*10)=5 -> 4 *)
  Alcotest.(check int) "p0" 0 (Obs.Histogram.percentile h 0.0);
  Alcotest.(check int) "p50" 4 (Obs.Histogram.percentile h 0.5);
  Alcotest.(check int) "p90" 9 (Obs.Histogram.percentile h 0.9);
  Alcotest.(check int) "p99" 31 (Obs.Histogram.percentile h 0.99);
  Alcotest.(check int) "p100" 31 (Obs.Histogram.percentile h 1.0)

let test_hist_percentile_clamps_to_max () =
  reset ();
  Obs.Histogram.set_enabled true;
  let h = Obs.Histogram.make "test.h.clamp" in
  Obs.Histogram.observe h 1000;
  (* a single sample: every percentile is that sample, not its bucket's
     upper boundary *)
  Alcotest.(check int) "p50 = max" 1000 (Obs.Histogram.percentile h 0.5);
  Alcotest.(check int) "p99 = max" 1000 (Obs.Histogram.percentile h 0.99)

let test_hist_interned_and_reset () =
  reset ();
  Obs.Histogram.set_enabled true;
  let a = Obs.Histogram.make "test.h.shared" in
  let b = Obs.Histogram.make "test.h.shared" in
  Obs.Histogram.observe a 1;
  Obs.Histogram.observe b 2;
  Alcotest.(check int) "one cell" 2 (Obs.Histogram.count a);
  Obs.Histogram.reset_all ();
  Alcotest.(check int) "zeroed" 0 (Obs.Histogram.count a);
  Obs.Histogram.observe a 3;
  Alcotest.(check int) "handle survives" 1 (Obs.Histogram.count b)

let test_hist_negative_clamped () =
  reset ();
  Obs.Histogram.set_enabled true;
  let h = Obs.Histogram.make "test.h.neg" in
  Obs.Histogram.observe h (-5);
  Alcotest.(check int) "clamped to 0" 0 (Obs.Histogram.max_value h);
  Alcotest.(check int) "counted" 1 (Obs.Histogram.count h)

let test_hist_dump_sorted () =
  reset ();
  Obs.Histogram.set_enabled true;
  Obs.Histogram.observe (Obs.Histogram.make "test.hdump.zz") 1;
  Obs.Histogram.observe (Obs.Histogram.make "test.hdump.aa") 2;
  let names =
    List.filter
      (Astring.String.is_prefix ~affix:"test.hdump.")
      (List.map fst (Obs.Histogram.dump ()))
  in
  Alcotest.(check (list string)) "sorted"
    [ "test.hdump.aa"; "test.hdump.zz" ]
    names

(* ---------- flight-recorder trace ---------- *)

let test_trace_disabled_by_default () =
  reset ();
  Obs.Trace.complete ~name:"x" ~cat:"span" ~start_ns:0 ~dur_ns:10;
  Obs.Trace.instant ~name:"i" ~cat:"fault" ~slot:1 ();
  Obs.Trace.counter ~name:"c" ~slot:1 [ ("v", 1) ];
  Obs.Trace.async_begin ~name:"a" ~cat:"coflow" ~id:0 ~slot:1;
  Alcotest.(check int) "all emitters no-ops" 0 (Obs.Trace.length ())

(* Pull every traceEvents object out of a parsed trace document. *)
let trace_events json =
  Option.get (Option.bind (Obs.Json.member "traceEvents" json) Obs.Json.to_list)

let field name ev = Obs.Json.member name ev

let str_field name ev = Option.bind (field name ev) Obs.Json.to_string

let test_trace_document_parses () =
  reset ();
  Obs.Trace.set_enabled true;
  let t0 = Obs.Clock.now_ns () in
  Obs.Trace.complete ~name:"sim.run" ~cat:"span" ~start_ns:t0 ~dur_ns:1500;
  Obs.Trace.instant ~name:"straggler" ~cat:"fault" ~slot:3
    ~args:[ ("coflow", "7") ] ();
  Obs.Trace.counter ~name:"slot" ~slot:2 [ ("transfers", 4) ];
  Obs.Trace.async_begin ~name:"wait" ~cat:"coflow" ~id:5 ~slot:1;
  Obs.Trace.async_end ~name:"wait" ~cat:"coflow" ~id:5 ~slot:4;
  Alcotest.(check int) "recorded" 5 (Obs.Trace.length ());
  let json =
    match Obs.Json.parse (Obs.Trace.to_json ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  Alcotest.(check (option string)) "displayTimeUnit" (Some "ms")
    (Option.bind (Obs.Json.member "displayTimeUnit" json) Obs.Json.to_string);
  let events = trace_events json in
  (* 4 metadata events + the 5 recorded ones *)
  Alcotest.(check int) "metadata + recorded" 9 (List.length events);
  let phases = List.filter_map (str_field "ph") events in
  List.iter
    (fun ph ->
      Alcotest.(check bool) ("has ph " ^ ph) true (List.mem ph phases))
    [ "M"; "X"; "i"; "C"; "b"; "e" ];
  (* both process tracks are named *)
  let process_names =
    List.filter_map
      (fun ev ->
        if str_field "name" ev = Some "process_name" then
          Option.bind (field "args" ev) (str_field "name")
        else None)
      events
  in
  Alcotest.(check int) "two named processes" 2 (List.length process_names);
  (* async events join by (cat, id) *)
  let waits =
    List.filter (fun ev -> str_field "name" ev = Some "wait") events
  in
  Alcotest.(check int) "wait slice endpoints" 2 (List.length waits);
  List.iter
    (fun ev ->
      Alcotest.(check (option string)) "cat" (Some "coflow")
        (str_field "cat" ev);
      Alcotest.(check (option (float 0.0))) "id" (Some 5.0)
        (Option.bind (field "id" ev) Obs.Json.to_float))
    waits;
  (* one simulated slot renders at 1000 us *)
  let slot_counter =
    List.find (fun ev -> str_field "ph" ev = Some "C") events
  in
  Alcotest.(check (option (float 0.0))) "slot 2 at 2000us" (Some 2000.0)
    (Option.bind (field "ts" slot_counter) Obs.Json.to_float)

let test_trace_reset_keeps_flag () =
  reset ();
  Obs.Trace.set_enabled true;
  Obs.Trace.instant ~name:"x" ~cat:"fault" ~slot:0 ();
  Obs.Trace.reset ();
  Alcotest.(check int) "events dropped" 0 (Obs.Trace.length ());
  Alcotest.(check bool) "flag kept" true (Obs.Trace.enabled ());
  (* an empty trace is still a valid document *)
  Alcotest.(check bool) "empty trace parses" true
    (Result.is_ok (Obs.Json.parse (Obs.Trace.to_json ())))

let test_trace_write () =
  reset ();
  Obs.Trace.set_enabled true;
  Obs.Trace.instant ~name:"x" ~cat:"fault" ~slot:0 ();
  let path = Filename.temp_file "obs_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.Trace.write path;
      let ic = open_in path in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "written file parses" true
        (Result.is_ok (Obs.Json.parse text)))

(* ---------- slot-event stream ---------- *)

let ev slot =
  { Obs.Events.slot;
    transfers = slot + 1;
    active_group = (if slot < 2 then 0 else -1);
    built = (if slot = 0 then 2 else 0);
    reused = (if slot > 0 then 1 else 0);
    backfilled = slot;
  }

let test_events_disabled_by_default () =
  reset ();
  Obs.Events.record (ev 0);
  Alcotest.(check int) "no-op while disabled" 0 (Obs.Events.length ())

let test_events_roundtrip () =
  reset ();
  Obs.Events.set_enabled true;
  Obs.Events.record (ev 0);
  Obs.Events.record (ev 1);
  Obs.Events.record (ev 2);
  Alcotest.(check int) "length" 3 (Obs.Events.length ());
  let l = Obs.Events.to_list () in
  Alcotest.(check int) "oldest first" 0 (List.hd l).Obs.Events.slot;
  Obs.Events.reset ();
  Alcotest.(check int) "reset drops events" 0 (Obs.Events.length ());
  Alcotest.(check bool) "reset keeps the flag" true (Obs.Events.enabled ())

let test_events_jsonl_golden () =
  reset ();
  Obs.Events.set_enabled true;
  Obs.Events.record (ev 0);
  Obs.Events.record (ev 1);
  let b = Buffer.create 128 in
  Obs.Events.write_jsonl b;
  Alcotest.(check string) "jsonl"
    "{\"slot\":0,\"transfers\":1,\"active_group\":0,\"built\":2,\"reused\":0,\"backfilled\":0}\n\
     {\"slot\":1,\"transfers\":2,\"active_group\":0,\"built\":0,\"reused\":1,\"backfilled\":1}\n"
    (Buffer.contents b)

let test_events_csv_golden () =
  reset ();
  Obs.Events.set_enabled true;
  Obs.Events.record (ev 0);
  Obs.Events.record (ev 2);
  let b = Buffer.create 128 in
  Obs.Events.write_csv b;
  Alcotest.(check string) "csv"
    "slot,transfers,active_group,built,reused,backfilled\n\
     0,1,0,2,0,0\n\
     2,3,-1,0,1,2\n"
    (Buffer.contents b)

(* ---------- slot-event ring bound ---------- *)

let slots () = List.map (fun e -> e.Obs.Events.slot) (Obs.Events.to_list ())

let test_events_ring_overwrites_oldest () =
  reset ();
  Obs.Events.set_enabled true;
  Obs.Events.set_capacity 4;
  for s = 0 to 5 do
    Obs.Events.record (ev s)
  done;
  Alcotest.(check int) "bounded" 4 (Obs.Events.length ());
  Alcotest.(check (list int)) "newest kept, oldest first" [ 2; 3; 4; 5 ]
    (slots ());
  Alcotest.(check int) "dropped counted" 2 (Obs.Events.dropped_count ());
  (* exporters see the surviving window *)
  let b = Buffer.create 64 in
  Obs.Events.write_csv b;
  Alcotest.(check bool) "csv starts at the survivor" true
    (Astring.String.is_infix ~affix:"\n2,3," (Buffer.contents b))

let test_events_shrink_keeps_newest () =
  reset ();
  Obs.Events.set_enabled true;
  for s = 0 to 4 do
    Obs.Events.record (ev s)
  done;
  Obs.Events.set_capacity 2;
  Alcotest.(check int) "shrunk" 2 (Obs.Events.length ());
  Alcotest.(check (list int)) "newest kept" [ 3; 4 ] (slots ());
  Alcotest.(check int) "evicted count as dropped" 3
    (Obs.Events.dropped_count ())

let test_events_unbounded_when_zero () =
  reset ();
  Obs.Events.set_enabled true;
  Obs.Events.set_capacity 0;
  for s = 0 to 99 do
    Obs.Events.record (ev s)
  done;
  Alcotest.(check int) "nothing evicted" 100 (Obs.Events.length ());
  Alcotest.(check int) "nothing dropped" 0 (Obs.Events.dropped_count ());
  Alcotest.check_raises "negative capacity rejected"
    (Invalid_argument "Events.set_capacity: negative capacity") (fun () ->
      Obs.Events.set_capacity (-1))

let test_events_reset_zeroes_dropped () =
  reset ();
  Obs.Events.set_enabled true;
  Obs.Events.set_capacity 1;
  Obs.Events.record (ev 0);
  Obs.Events.record (ev 1);
  Alcotest.(check int) "dropped before reset" 1 (Obs.Events.dropped_count ());
  Obs.Events.reset ();
  Alcotest.(check int) "dropped zeroed" 0 (Obs.Events.dropped_count ());
  Obs.Events.record (ev 7);
  Alcotest.(check (list int)) "capacity survives reset" [ 7 ] (slots ())

(* ---------- profile artifact ---------- *)

let test_profile_json_shape () =
  reset ();
  Obs.Span.with_ "p.span" spin;
  Obs.Counter.incr (Obs.Counter.make "p.counter") ~by:5;
  Obs.Events.set_enabled true;
  Obs.Histogram.set_enabled true;
  Obs.Histogram.observe (Obs.Histogram.make "p.hist") 4;
  Obs.Events.record (ev 0);
  let json = Obs.Profile.to_json () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true
        (Astring.String.is_infix ~affix:needle json))
    [ "\"p.span\""; "\"p.counter\""; "\"slot_events\""; "\"clock\"";
      "\"p.hist\""; "\"histograms\""; "\"slot_events_dropped\"";
    ];
  (* the artifact must round-trip through the obs JSON parser — this is
     what obs-diff consumes *)
  let doc =
    match Obs.Json.parse json with
    | Ok j -> j
    | Error e -> Alcotest.failf "profile does not parse: %s" e
  in
  let num path =
    let rec walk j = function
      | [] -> Obs.Json.to_float j
      | k :: rest -> Option.bind (Obs.Json.member k j) (fun j -> walk j rest)
    in
    walk doc path
  in
  Alcotest.(check (option (float 0.0))) "counter value" (Some 5.0)
    (num [ "counters"; "p.counter" ]);
  Alcotest.(check (option (float 0.0))) "hist p50" (Some 4.0)
    (num [ "histograms"; "p.hist"; "p50" ]);
  Alcotest.(check (option (float 0.0))) "no drops" (Some 0.0)
    (num [ "slot_events_dropped" ])

let test_profile_reset_all () =
  reset ();
  Obs.Span.with_ "gone" spin;
  Obs.Counter.incr (Obs.Counter.make "gone.c");
  Obs.Events.set_enabled true;
  Obs.Events.record (ev 0);
  Obs.Profile.reset_all ();
  Alcotest.(check (list string)) "spans cleared" []
    (List.map fst (Obs.Span.dump ()));
  Alcotest.(check int) "counter cleared" 0
    (Obs.Counter.value (Obs.Counter.make "gone.c"));
  Alcotest.(check int) "events cleared" 0 (Obs.Events.length ())

let test_profile_write_artifacts () =
  reset ();
  Obs.Span.with_ "w.span" spin;
  Obs.Events.set_enabled true;
  Obs.Events.record (ev 0);
  let path = Filename.temp_file "obs_profile" ".json" in
  Obs.Profile.write path;
  let read p =
    let ic = open_in p in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  Alcotest.(check bool) "profile has spans" true
    (Astring.String.is_infix ~affix:"\"w.span\"" (read path));
  Alcotest.(check bool) "slot stream written" true
    (Sys.file_exists (path ^ ".slots.jsonl")
    && Sys.file_exists (path ^ ".slots.csv"));
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".slots.jsonl"; path ^ ".slots.csv" ]

(* ---------- profile diff (the obs-diff gate) ---------- *)

(* A minimal synthetic profile: one counter, one span, one wall-time
   histogram and one value histogram — enough to cover every gating rule. *)
let profile_doc ~pivots ~self_ns ~pivot_p99 ~wait_p50 =
  Obs.Json.parse_exn
    (Printf.sprintf
       {|{
  "clock": "monotonic",
  "spans": [
    {"path": "lp.solve", "count": 3, "total_ns": %d, "self_ns": %d,
     "max_ns": 100}
  ],
  "counters": { "lp.pivots": %d },
  "gauges": {},
  "histograms": {
    "lp.pivot_ns": {"count": 40, "sum": 900, "min": 1, "max": 99,
                    "p50": 20, "p90": 70, "p99": %d},
    "coflow.wait_slots": {"count": 6, "sum": 30, "min": 1, "max": 12,
                          "p50": %d, "p90": 11, "p99": 12}
  },
  "slot_events": 0,
  "slot_events_dropped": 0
}|}
       self_ns self_ns pivots pivot_p99 wait_p50)

let base_profile () =
  profile_doc ~pivots:100 ~self_ns:5000 ~pivot_p99:90 ~wait_p50:5

let test_diff_identical_profiles () =
  let report =
    Obs.Profile_diff.diff ~old_profile:(base_profile ())
      ~new_profile:(base_profile ()) ()
  in
  Alcotest.(check int) "no regressions" 0
    (List.length (Obs.Profile_diff.regressions report));
  Alcotest.(check bool) "rows compared" true
    (List.length report.Obs.Profile_diff.rows >= 10)

let test_diff_counter_regression () =
  let perturbed =
    profile_doc ~pivots:150 ~self_ns:5000 ~pivot_p99:90 ~wait_p50:5
  in
  let report =
    Obs.Profile_diff.diff ~threshold:10.0 ~old_profile:(base_profile ())
      ~new_profile:perturbed ()
  in
  let regs = Obs.Profile_diff.regressions report in
  Alcotest.(check (list string)) "only the counter regressed"
    [ "lp.pivots" ]
    (List.map (fun r -> r.Obs.Profile_diff.name) regs);
  (* but a looser threshold forgives the same delta *)
  let forgiving =
    Obs.Profile_diff.diff ~threshold:60.0 ~old_profile:(base_profile ())
      ~new_profile:perturbed ()
  in
  Alcotest.(check int) "60%% threshold passes" 0
    (List.length (Obs.Profile_diff.regressions forgiving))

let test_diff_time_metrics_informational () =
  (* span self-time doubles and a _ns histogram percentile triples: without
     a time threshold neither gates; with one, both do *)
  let noisy =
    profile_doc ~pivots:100 ~self_ns:10000 ~pivot_p99:270 ~wait_p50:5
  in
  let lenient =
    Obs.Profile_diff.diff ~old_profile:(base_profile ()) ~new_profile:noisy ()
  in
  Alcotest.(check int) "time drift is informational" 0
    (List.length (Obs.Profile_diff.regressions lenient));
  let strict =
    Obs.Profile_diff.diff ~time_threshold:50.0 ~old_profile:(base_profile ())
      ~new_profile:noisy ()
  in
  let names =
    List.sort compare
      (List.map
         (fun r -> r.Obs.Profile_diff.name)
         (Obs.Profile_diff.regressions strict))
  in
  Alcotest.(check (list string)) "time threshold gates them"
    [ "lp.pivot_ns.p99"; "lp.solve" ]
    names

let test_diff_value_histogram_gates () =
  (* coflow.wait_slots is a value histogram (no _ns suffix): deterministic,
     so it gates on the default threshold *)
  let shifted =
    profile_doc ~pivots:100 ~self_ns:5000 ~pivot_p99:90 ~wait_p50:9
  in
  let report =
    Obs.Profile_diff.diff ~old_profile:(base_profile ()) ~new_profile:shifted
      ()
  in
  Alcotest.(check (list string)) "wait p50 regressed"
    [ "coflow.wait_slots.p50" ]
    (List.map
       (fun r -> r.Obs.Profile_diff.name)
       (Obs.Profile_diff.regressions report))

let test_diff_missing_metric_is_regression () =
  let stripped =
    Obs.Json.parse_exn
      {|{"spans": [], "counters": {}, "gauges": {},
         "histograms": {"coflow.wait_slots": {"count": 6, "sum": 30,
           "min": 1, "max": 12, "p50": 5, "p90": 11, "p99": 12}},
         "slot_events": 0, "slot_events_dropped": 0}|}
  in
  let report =
    Obs.Profile_diff.diff ~old_profile:(base_profile ()) ~new_profile:stripped
      ()
  in
  let regs =
    List.map
      (fun r -> r.Obs.Profile_diff.name)
      (Obs.Profile_diff.regressions report)
  in
  (* the vanished counter and the vanished value-histogram stats gate; the
     vanished time metrics stay informational *)
  Alcotest.(check bool) "lost counter is a regression" true
    (List.mem "lp.pivots" regs);
  Alcotest.(check bool) "lost hist count is a regression" true
    (List.mem "lp.pivot_ns.count" regs);
  Alcotest.(check bool) "lost span self-time is not" false
    (List.mem "lp.solve" regs)

let test_diff_new_metric_informational () =
  let report =
    Obs.Profile_diff.diff
      ~old_profile:
        (Obs.Json.parse_exn
           {|{"spans": [], "counters": {}, "gauges": {}, "histograms": {},
              "slot_events": 0, "slot_events_dropped": 0}|})
      ~new_profile:(base_profile ()) ()
  in
  Alcotest.(check int) "new metrics never regress" 0
    (List.length (Obs.Profile_diff.regressions report))

let test_diff_render_table () =
  let perturbed =
    profile_doc ~pivots:150 ~self_ns:5000 ~pivot_p99:90 ~wait_p50:5
  in
  let report =
    Obs.Profile_diff.diff ~old_profile:(base_profile ())
      ~new_profile:perturbed ()
  in
  let text = Obs.Profile_diff.render report in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("render mentions " ^ needle) true
        (Astring.String.is_infix ~affix:needle text))
    [ "lp.pivots"; "REGRESSION"; "+50.0%"; "1 regressions" ];
  let full = Obs.Profile_diff.render ~all:true report in
  Alcotest.(check bool) "~all shows unchanged rows" true
    (String.length full > String.length text)

(* ---------- the obs JSON parser ---------- *)

let test_json_roundtrip () =
  let check_parse text expect =
    match Obs.Json.parse text with
    | Ok j -> Alcotest.(check bool) ("parses " ^ text) true (j = expect)
    | Error e -> Alcotest.failf "%s: %s" text e
  in
  check_parse "null" Obs.Json.Null;
  check_parse "[1, 2.5, -3e2]"
    (Obs.Json.Arr [ Obs.Json.Num 1.0; Obs.Json.Num 2.5; Obs.Json.Num (-300.0) ]);
  check_parse {|{"a": {"b": [true, false]}, "c": "x\n\"y\""}|}
    (Obs.Json.Obj
       [ ("a", Obs.Json.Obj [ ("b", Obs.Json.Arr [ Obs.Json.Bool true; Obs.Json.Bool false ]) ]);
         ("c", Obs.Json.Str "x\n\"y\"");
       ]);
  (* escape -> parse is the identity on the strings the exporters emit *)
  let s = "a\"b\\c\nd\te\r\x0c\x08 π" in
  check_parse (Printf.sprintf "\"%s\"" (Obs.Json.escape s)) (Obs.Json.Str s);
  List.iter
    (fun bad ->
      Alcotest.(check bool) ("rejects " ^ bad) true
        (Result.is_error (Obs.Json.parse bad)))
    [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]

(* ---------- determinism: observing must not perturb ---------- *)

let test_profile_does_not_change_schedule () =
  reset ();
  let st = Random.State.make [| 77 |] in
  let inst = Synthetic.uniform ~ports:4 ~coflows:6 ~density:0.4 ~max_size:4 st in
  let order = Ordering.by_load_over_weight inst in
  let policy = Scheduler.case_policy ~case:Scheduler.Group_backfill inst order in
  let off = Engine.run inst policy in
  Obs.Events.set_enabled true;
  let on = Engine.run inst policy in
  Alcotest.(check bool) "events were recorded" true (Obs.Events.length () > 0);
  Alcotest.(check (float 0.0)) "same TWCT" off.Scheduler.twct
    on.Scheduler.twct;
  Alcotest.(check (array int)) "same completions" off.Scheduler.completion
    on.Scheduler.completion;
  Alcotest.(check int) "same slots" off.Scheduler.slots on.Scheduler.slots;
  (* the event-driven loop records one event per decision, stamped at the
     batch's first slot — never more than one per simulated slot *)
  Alcotest.(check bool) "at most one event per slot" true
    (Obs.Events.length () <= on.Scheduler.slots);
  reset ();
  (* the slot-by-slot loop keeps the one-event-per-slot contract *)
  Obs.Events.set_enabled true;
  let unbatched = Engine.run inst (Policy.unbatched policy) in
  Alcotest.(check (float 0.0)) "batching does not change TWCT"
    off.Scheduler.twct unbatched.Scheduler.twct;
  Alcotest.(check int) "one event per slot" unbatched.Scheduler.slots
    (Obs.Events.length ());
  reset ()

let test_trace_does_not_change_schedule () =
  reset ();
  let st = Random.State.make [| 79 |] in
  let inst = Synthetic.uniform ~ports:4 ~coflows:6 ~density:0.4 ~max_size:4 st in
  let order = Ordering.by_load_over_weight inst in
  let run () = Scheduler.run ~case:Scheduler.Group_backfill inst order in
  let off = run () in
  (* full flight recorder on: events + histograms + trace *)
  Obs.Events.set_enabled true;
  Obs.Histogram.set_enabled true;
  Obs.Trace.set_enabled true;
  let on = run () in
  Alcotest.(check (float 0.0)) "same TWCT" off.Scheduler.twct on.Scheduler.twct;
  Alcotest.(check (array int)) "same completions" off.Scheduler.completion
    on.Scheduler.completion;
  Alcotest.(check int) "same slots" off.Scheduler.slots on.Scheduler.slots;
  Alcotest.(check bool) "trace recorded" true (Obs.Trace.length () > 0);
  (* per-coflow lifecycle histograms: one wait and one flow sample per
     coflow, and wait <= flow sample by sample (checked via the sums) *)
  let wait = Obs.Histogram.make "coflow.wait_slots" in
  let flow = Obs.Histogram.make "coflow.flow_slots" in
  Alcotest.(check int) "one wait sample per coflow" 6
    (Obs.Histogram.count wait);
  Alcotest.(check int) "one flow sample per coflow" 6
    (Obs.Histogram.count flow);
  Alcotest.(check bool) "wait <= flow" true
    (Obs.Histogram.sum wait <= Obs.Histogram.sum flow);
  (* the trace document is valid and carries the coflow lifecycle track *)
  let json = Obs.Trace.to_json () in
  (match Obs.Json.parse json with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok doc ->
    let events =
      Option.get (Option.bind (Obs.Json.member "traceEvents" doc) Obs.Json.to_list)
    in
    let has ~ph ~name =
      List.exists
        (fun ev ->
          Option.bind (Obs.Json.member "ph" ev) Obs.Json.to_string = Some ph
          && Option.bind (Obs.Json.member "name" ev) Obs.Json.to_string
             = Some name)
        events
    in
    Alcotest.(check bool) "wait slices open" true (has ~ph:"b" ~name:"wait");
    Alcotest.(check bool) "wait slices close" true (has ~ph:"e" ~name:"wait");
    Alcotest.(check bool) "serve slices open" true (has ~ph:"b" ~name:"serve");
    Alcotest.(check bool) "serve slices close" true (has ~ph:"e" ~name:"serve");
    Alcotest.(check bool) "slot counter track" true (has ~ph:"C" ~name:"slot"));
  reset ()

let test_scheduler_counters_flow () =
  reset ();
  let st = Random.State.make [| 78 |] in
  let inst = Synthetic.uniform ~ports:4 ~coflows:5 ~density:0.4 ~max_size:4 st in
  let order = Ordering.by_load_over_weight inst in
  let r = Scheduler.run ~case:Scheduler.Group inst order in
  Alcotest.(check int) "obs counter mirrors result.matchings"
    r.Scheduler.matchings
    (Obs.Counter.value (Obs.Counter.make "sched.matchings_built"));
  Alcotest.(check bool) "slots counted" true
    (Obs.Counter.value (Obs.Counter.make "sim.slots") >= r.Scheduler.slots);
  reset ()

let () =
  Alcotest.run "obs"
    [ ( "clock",
        [ Alcotest.test_case "monotonic" `Quick test_clock_monotonic;
          Alcotest.test_case "advances across sleep" `Quick
            test_clock_advances_across_sleep;
          Alcotest.test_case "elapsed units" `Quick test_clock_elapsed_units;
        ] );
      ( "span",
        [ Alcotest.test_case "nesting paths" `Quick test_span_nesting_paths;
          Alcotest.test_case "leaf under two parents" `Quick
            test_span_same_leaf_distinct_parents;
          Alcotest.test_case "records on raise" `Quick
            test_span_records_on_raise;
          Alcotest.test_case "timed" `Quick test_span_timed_returns_elapsed;
        ] );
      ( "counter",
        [ Alcotest.test_case "interned" `Quick test_counter_interned;
          Alcotest.test_case "reset keeps handles" `Quick
            test_counter_reset_keeps_handles;
          Alcotest.test_case "dump sorted" `Quick test_counter_dump_sorted;
          Alcotest.test_case "gauge" `Quick test_gauge;
        ] );
      ( "histogram",
        [ Alcotest.test_case "disabled by default" `Quick
            test_hist_disabled_by_default;
          Alcotest.test_case "exact below 32" `Quick
            test_hist_buckets_exact_below_32;
          Alcotest.test_case "bucket bounds" `Quick test_hist_bucket_bounds;
          Alcotest.test_case "nearest-rank percentiles" `Quick
            test_hist_percentiles_nearest_rank;
          Alcotest.test_case "clamps to max" `Quick
            test_hist_percentile_clamps_to_max;
          Alcotest.test_case "interned & reset" `Quick
            test_hist_interned_and_reset;
          Alcotest.test_case "negative clamped" `Quick
            test_hist_negative_clamped;
          Alcotest.test_case "dump sorted" `Quick test_hist_dump_sorted;
        ] );
      ( "trace",
        [ Alcotest.test_case "disabled by default" `Quick
            test_trace_disabled_by_default;
          Alcotest.test_case "document parses" `Quick
            test_trace_document_parses;
          Alcotest.test_case "reset keeps flag" `Quick
            test_trace_reset_keeps_flag;
          Alcotest.test_case "write" `Quick test_trace_write;
        ] );
      ( "events",
        [ Alcotest.test_case "disabled by default" `Quick
            test_events_disabled_by_default;
          Alcotest.test_case "roundtrip" `Quick test_events_roundtrip;
          Alcotest.test_case "jsonl golden" `Quick test_events_jsonl_golden;
          Alcotest.test_case "csv golden" `Quick test_events_csv_golden;
          Alcotest.test_case "ring overwrites oldest" `Quick
            test_events_ring_overwrites_oldest;
          Alcotest.test_case "shrink keeps newest" `Quick
            test_events_shrink_keeps_newest;
          Alcotest.test_case "zero = unbounded" `Quick
            test_events_unbounded_when_zero;
          Alcotest.test_case "reset zeroes dropped" `Quick
            test_events_reset_zeroes_dropped;
        ] );
      ( "profile",
        [ Alcotest.test_case "json shape" `Quick test_profile_json_shape;
          Alcotest.test_case "reset all" `Quick test_profile_reset_all;
          Alcotest.test_case "write artifacts" `Quick
            test_profile_write_artifacts;
        ] );
      ( "diff",
        [ Alcotest.test_case "identical profiles" `Quick
            test_diff_identical_profiles;
          Alcotest.test_case "counter regression" `Quick
            test_diff_counter_regression;
          Alcotest.test_case "time metrics informational" `Quick
            test_diff_time_metrics_informational;
          Alcotest.test_case "value histogram gates" `Quick
            test_diff_value_histogram_gates;
          Alcotest.test_case "missing metric regresses" `Quick
            test_diff_missing_metric_is_regression;
          Alcotest.test_case "new metric informational" `Quick
            test_diff_new_metric_informational;
          Alcotest.test_case "render" `Quick test_diff_render_table;
        ] );
      ("json", [ Alcotest.test_case "roundtrip" `Quick test_json_roundtrip ]);
      ( "determinism",
        [ Alcotest.test_case "profiling does not perturb schedules" `Quick
            test_profile_does_not_change_schedule;
          Alcotest.test_case "tracing does not perturb schedules" `Quick
            test_trace_does_not_change_schedule;
          Alcotest.test_case "scheduler counters flow" `Quick
            test_scheduler_counters_flow;
        ] );
    ]

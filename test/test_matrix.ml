(* Unit and property tests for the demand-matrix substrate. *)

open Matrix

let fig1 () =
  (* The 2x2 MapReduce coflow from Figure 1 of the paper. *)
  Mat.of_arrays [| [| 1; 2 |]; [| 2; 1 |] |]

let check_int = Alcotest.(check int)

let test_make_zero () =
  let d = Mat.make 3 in
  check_int "dim" 3 (Mat.dim d);
  check_int "total" 0 (Mat.total d);
  Alcotest.(check bool) "is_zero" true (Mat.is_zero d)

let test_make_invalid () =
  Alcotest.check_raises "zero dim" (Invalid_argument
    "Mat.make: dimension must be positive") (fun () -> ignore (Mat.make 0))

let test_get_set () =
  let d = Mat.make 2 in
  Mat.set d 0 1 5;
  check_int "get" 5 (Mat.get d 0 1);
  check_int "other entry untouched" 0 (Mat.get d 1 0)

let test_set_negative () =
  let d = Mat.make 2 in
  Alcotest.check_raises "negative" (Invalid_argument "Mat.set: negative entry")
    (fun () -> Mat.set d 0 0 (-1))

let test_out_of_range () =
  let d = Mat.make 2 in
  (try
     ignore (Mat.get d 2 0);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_add_entry () =
  let d = Mat.make 2 in
  Mat.add_entry d 1 1 4;
  Mat.add_entry d 1 1 (-3);
  check_int "after add" 1 (Mat.get d 1 1);
  (try
     Mat.add_entry d 1 1 (-5);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* An update that would push the total past [max_int] is refused by a
   message naming the entry, before anything is written: the row sum
   would wrap negative and drop a row that still holds demand from the
   live set. *)
let test_overflow_rejected () =
  let d = Mat.make 2 in
  Mat.set d 0 0 max_int;
  let refused label (i, j) f =
    let before = Mat.copy d in
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument msg ->
      Alcotest.(check bool)
        (label ^ " names the entry") true
        (Astring.String.is_infix ~affix:(Printf.sprintf "(%d, %d)" i j) msg);
      Alcotest.(check bool) (label ^ " leaves the matrix") true
        (Mat.equal before d)
  in
  refused "set" (0, 1) (fun () -> Mat.set d 0 1 1);
  refused "add_entry" (1, 0) (fun () -> Mat.add_entry d 1 0 1);
  refused "replace" (1, 1) (fun () -> Mat.replace d 1 1 ~old:0 max_int);
  (* the entry itself would wrap before the total is even compared *)
  refused "add_entry past max_int" (0, 0) (fun () -> Mat.add_entry d 0 0 1);
  check_int "row sum" max_int (Mat.row_sum d 0);
  (* shrinking is always fine, and frees room for exactly what it freed *)
  Mat.add_entry d 0 0 (-3);
  Mat.set d 1 1 3;
  check_int "total back at max_int" max_int (Mat.total d);
  refused "after refill" (1, 0) (fun () -> Mat.set d 1 0 1)

let test_of_arrays_roundtrip () =
  let d = fig1 () in
  Alcotest.(check (array (array int)))
    "roundtrip"
    [| [| 1; 2 |]; [| 2; 1 |] |]
    (Array.init 2 (fun i -> Array.init 2 (Mat.get d i)))

let test_of_arrays_not_square () =
  (try
     ignore (Mat.of_arrays [| [| 1; 2 |]; [| 3 |] |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_of_arrays_negative () =
  (try
     ignore (Mat.of_arrays [| [| 1; -2 |]; [| 3; 0 |] |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_sums () =
  let d = fig1 () in
  check_int "row 0" 3 (Mat.row_sum d 0);
  check_int "row 1" 3 (Mat.row_sum d 1);
  check_int "col 0" 3 (Mat.col_sum d 0);
  check_int "col 1" 3 (Mat.col_sum d 1);
  check_int "total" 6 (Mat.total d);
  Alcotest.(check (array int)) "row_sums" [| 3; 3 |] (Mat.row_sums d);
  Alcotest.(check (array int)) "col_sums" [| 3; 3 |] (Mat.col_sums d)

let test_load_fig1 () =
  (* Paper: the Figure 1 coflow can be finished in exactly 3 slots. *)
  check_int "rho" 3 (Mat.load (fig1 ()))

let test_load_skewed () =
  let d = Mat.of_arrays [| [| 9; 0; 9 |]; [| 0; 9; 0 |]; [| 9; 0; 9 |] |] in
  check_int "rho of Appendix-B coflow 1" 18 (Mat.load d)

let test_nonzero_count () =
  let d = Mat.of_arrays [| [| 0; 2 |]; [| 1; 0 |] |] in
  check_int "M0" 2 (Mat.nonzero_count d)

let test_map_nonzeros () =
  let d = Mat.of_arrays [| [| 0; 2 |]; [| 3; 1 |] |] in
  let seen = ref [] in
  let r =
    Mat.map
      (fun v ->
        seen := v :: !seen;
        if v = 1 then 0 else 3 * v)
      d
  in
  Alcotest.(check (list int)) "nonzeros only, row-major" [ 2; 3; 1 ]
    (List.rev !seen);
  Alcotest.(check bool) "mapped, a zero result dropped" true
    (Mat.equal r (Mat.of_arrays [| [| 0; 6 |]; [| 9; 0 |] |]));
  check_int "nnz follows" 2 (Mat.nonzero_count r)

let test_diagonal () =
  let d = Mat.diagonal [| 3; 0; 7 |] in
  Alcotest.(check bool) "is_diagonal" true (Mat.is_diagonal d);
  check_int "entry" 7 (Mat.get d 2 2);
  Alcotest.(check bool) "fig1 not diagonal" false (Mat.is_diagonal (fig1 ()))

let test_leq () =
  let a = fig1 () in
  let b = Mat.map (fun v -> 2 * v) a in
  Alcotest.(check bool) "a <= 2a" true (Mat_helpers.leq a b);
  Alcotest.(check bool) "2a <= a fails" false (Mat_helpers.leq b a)

let test_iter_nonzero () =
  let d = Mat.of_arrays [| [| 0; 5 |]; [| 0; 0 |] |] in
  let seen = ref [] in
  Mat.iter_nonzero (fun i j v -> seen := (i, j, v) :: !seen) d;
  Alcotest.(check (list (triple int int int))) "entries" [ (0, 1, 5) ] !seen

let test_copy_independent () =
  let a = fig1 () in
  let b = Mat.copy a in
  Mat.set b 0 0 9;
  check_int "original untouched" 1 (Mat.get a 0 0)

(* Row arrays carry spare slots whose count depends on the order of
   updates; [Mat.equal] must see through that. *)
let test_equal_ignores_order () =
  let a = Mat.make 5 and b = Mat.make 5 in
  List.iter (fun (i, j, v) -> Mat.set a i j v)
    [ (0, 0, 1); (0, 1, 2); (0, 2, 3); (0, 3, 4); (0, 4, 5); (3, 1, 7) ];
  List.iter (fun (i, j, v) -> Mat.set b i j v)
    [ (3, 1, 7); (0, 4, 5); (0, 3, 4); (0, 2, 9); (0, 1, 2); (0, 0, 1) ];
  Alcotest.(check bool) "one entry differs" false (Mat.equal a b);
  (* zero and back: the entry leaves the map, then returns *)
  Mat.set b 0 2 0;
  Mat.set b 4 4 6;
  Mat.set b 0 2 3;
  Mat.add_entry b 4 4 (-6);
  Alcotest.(check bool) "same entries, other order" true (Mat.equal a b);
  Alcotest.(check bool) "copy is equal" true (Mat.equal a (Mat.copy b));
  Mat.set b 2 2 1;
  Alcotest.(check bool) "extra entry" false (Mat.equal a b)

(* ---------- properties ---------- *)

let mat_gen =
  QCheck.Gen.(
    let* m = int_range 1 8 in
    let* seed = int_range 0 1_000_000 in
    let st = Random.State.make [| seed |] in
    return (Mat.random ~density:0.6 ~max_entry:9 st m))

let arb_mat = QCheck.make ~print:Mat_helpers.to_string mat_gen

let prop_load_bounds =
  QCheck.Test.make ~name:"load is max of row/col sums" ~count:200 arb_mat
    (fun d ->
      let rows = Array.to_list (Mat.row_sums d) in
      let cols = Array.to_list (Mat.col_sums d) in
      Mat.load d = List.fold_left max 0 (rows @ cols))

let prop_load_subadditive =
  QCheck.Test.make ~name:"load is subadditive" ~count:200
    (QCheck.pair arb_mat arb_mat) (fun (a, b) ->
      QCheck.assume (Mat.dim a = Mat.dim b);
      let s = Mat.copy a in
      Mat.iter_nonzero (Mat.add_entry s) b;
      Mat.load s <= Mat.load a + Mat.load b)

let prop_load_superadditive_total =
  QCheck.Test.make ~name:"m * load >= total" ~count:200 arb_mat (fun d ->
      Mat.dim d * Mat.load d >= Mat.total d)

let prop_transpose_preserves_load =
  QCheck.Test.make ~name:"transpose preserves load" ~count:200 arb_mat
    (fun d ->
      let t = Mat.make (Mat.dim d) in
      Mat.iter_nonzero (fun i j v -> Mat.set t j i v) d;
      Mat.load d = Mat.load t)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_load_bounds;
      prop_load_subadditive;
      prop_load_superadditive_total;
      prop_transpose_preserves_load;
    ]

let () =
  Alcotest.run "matrix"
    [ ( "mat",
        [ Alcotest.test_case "make zero" `Quick test_make_zero;
          Alcotest.test_case "make invalid" `Quick test_make_invalid;
          Alcotest.test_case "get/set" `Quick test_get_set;
          Alcotest.test_case "set negative" `Quick test_set_negative;
          Alcotest.test_case "out of range" `Quick test_out_of_range;
          Alcotest.test_case "add_entry" `Quick test_add_entry;
          Alcotest.test_case "of_arrays roundtrip" `Quick
            test_of_arrays_roundtrip;
          Alcotest.test_case "of_arrays not square" `Quick
            test_of_arrays_not_square;
          Alcotest.test_case "of_arrays negative" `Quick
            test_of_arrays_negative;
          Alcotest.test_case "row/col sums" `Quick test_sums;
          Alcotest.test_case "load of Figure 1" `Quick test_load_fig1;
          Alcotest.test_case "load of skewed matrix" `Quick test_load_skewed;
          Alcotest.test_case "nonzero count" `Quick test_nonzero_count;
          Alcotest.test_case "map over nonzeros" `Quick test_map_nonzeros;
          Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "leq" `Quick test_leq;
          Alcotest.test_case "iter_nonzero" `Quick test_iter_nonzero;
          Alcotest.test_case "copy independence" `Quick test_copy_independent;
          Alcotest.test_case "equal ignores insertion order" `Quick
            test_equal_ignores_order;
          Alcotest.test_case "overflow rejected" `Quick test_overflow_rejected;
        ] );
      ("properties", properties);
    ]

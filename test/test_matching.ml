(* Tests for the assignment solver MaxWeight matching is built on. *)

open Matching

(* vertex-disjoint pairs of an [m x m] graph, every index in range *)
let is_matching m pairs =
  let distinct side =
    List.length (List.sort_uniq compare (List.map side pairs))
    = List.length pairs
  in
  List.for_all (fun (i, j) -> i >= 0 && i < m && j >= 0 && j < m) pairs
  && distinct fst && distinct snd

(* ---------- Hungarian ---------- *)

let test_hungarian_known () =
  (* classic example: optimal assignment cost 5 (1 + 1 + 3)?  compute:
     rows to cols on [[4;1;3];[2;0;5];[3;2;2]] -> 0->1 (1), 1->0 (2),
     2->2 (2): total 5. *)
  let cost = [| [| 4.; 1.; 3. |]; [| 2.; 0.; 5. |]; [| 3.; 2.; 2. |] |] in
  let assignment, total = Hungarian.min_cost_assignment cost in
  Alcotest.(check (float 1e-9)) "total" 5.0 total;
  Alcotest.(check (array int)) "assignment" [| 1; 0; 2 |] assignment

let test_hungarian_identity () =
  let cost = [| [| 0.; 9. |]; [| 9.; 0. |] |] in
  let assignment, total = Hungarian.min_cost_assignment cost in
  Alcotest.(check (float 1e-9)) "total" 0.0 total;
  Alcotest.(check (array int)) "diag" [| 0; 1 |] assignment

let test_hungarian_validation () =
  (try
     ignore (Hungarian.min_cost_assignment [||]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (try
     ignore (Hungarian.min_cost_assignment [| [| 1.0 |]; [| 2.0 |] |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ());
  (try
     ignore (Hungarian.min_cost_assignment [| [| nan |] |]);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_max_weight_drops_zeros () =
  let w = [| [| 0.; 5. |]; [| 0.; 0. |] |] in
  let pairs, total = Hungarian.max_weight_matching w in
  Alcotest.(check (float 1e-9)) "weight" 5.0 total;
  Alcotest.(check (list (pair int int))) "only the positive pair" [ (0, 1) ]
    pairs

(* exact optimum by brute force over permutations, for cross-checking *)
let brute_max_weight w =
  let n = Array.length w in
  let best = ref 0.0 in
  let rec go i used acc =
    if i = n then begin
      if acc > !best then best := acc
    end
    else
      for j = 0 to n - 1 do
        if not used.(j) then begin
          used.(j) <- true;
          go (i + 1) used (acc +. w.(i).(j));
          used.(j) <- false
        end
      done
  in
  go 0 (Array.make n false) 0.0;
  !best

let prop_hungarian_optimal =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 5 in
      let* seed = int_range 0 1_000_000 in
      let st = Random.State.make [| seed |] in
      return
        (Array.init n (fun _ ->
             Array.init n (fun _ -> float_of_int (Random.State.int st 20)))))
  in
  QCheck.Test.make ~name:"Hungarian matches brute-force optimum" ~count:150
    (QCheck.make
       ~print:(fun w ->
         String.concat ";"
           (Array.to_list
              (Array.map
                 (fun r ->
                   String.concat ","
                     (Array.to_list (Array.map string_of_float r)))
                 w)))
       gen)
    (fun w ->
      let _, total = Hungarian.max_weight_matching w in
      Float.abs (total -. brute_max_weight w) < 1e-9)

let prop_hungarian_valid_matching =
  let gen =
    QCheck.Gen.(
      let* n = int_range 1 8 in
      let* seed = int_range 0 1_000_000 in
      let st = Random.State.make [| seed |] in
      return
        (Array.init n (fun _ ->
             Array.init n (fun _ -> float_of_int (Random.State.int st 9)))))
  in
  QCheck.Test.make ~name:"Hungarian output is a matching" ~count:150
    (QCheck.make ~print:(fun w -> Printf.sprintf "%dx%d" (Array.length w) (Array.length w)) gen)
    (fun w ->
      let pairs, _ = Hungarian.max_weight_matching w in
      is_matching (Array.length w) pairs)

let properties =
  List.map QCheck_alcotest.to_alcotest
    [ prop_hungarian_optimal; prop_hungarian_valid_matching ]

let () =
  Alcotest.run "matching"
    [ ( "hungarian",
        [ Alcotest.test_case "known instance" `Quick test_hungarian_known;
          Alcotest.test_case "identity" `Quick test_hungarian_identity;
          Alcotest.test_case "validation" `Quick test_hungarian_validation;
          Alcotest.test_case "drops zero pairs" `Quick
            test_max_weight_drops_zeros;
        ] );
      ("properties", properties);
    ]

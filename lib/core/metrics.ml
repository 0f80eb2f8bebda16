let total_weighted_completion ~weights completion =
  if Array.length weights < Array.length completion then
    invalid_arg "Metrics: weight vector too short";
  let acc = ref 0.0 in
  Array.iteri
    (fun k c -> acc := !acc +. (weights.(k) *. float_of_int c))
    completion;
  !acc

let total_weighted_flow ~weights ~releases completion =
  if
    Array.length weights < Array.length completion
    || Array.length releases < Array.length completion
  then invalid_arg "Metrics: vector length mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun k c ->
      if c < releases.(k) then
        invalid_arg "Metrics.total_weighted_flow: completion before release";
      acc := !acc +. (weights.(k) *. float_of_int (c - releases.(k))))
    completion;
  !acc

(* [what] lets report call sites name the algorithm and instance whose
   completion set turned out empty — a bare "Metrics.mean: empty" from an
   arena over a dozen algorithms is undebuggable (e.g. an empty harness
   filter makes every completion vector empty). *)
let empty_arg name what =
  invalid_arg
    (match what with
    | None -> name ^ ": empty"
    | Some w -> Printf.sprintf "%s: empty (%s)" name w)

let mean ?what cs =
  if Array.length cs = 0 then empty_arg "Metrics.mean" what;
  float_of_int (Array.fold_left ( + ) 0 cs) /. float_of_int (Array.length cs)

let percentile ?what p cs =
  let n = Array.length cs in
  if n = 0 then empty_arg "Metrics.percentile" what;
  if p < 0.0 || p > 1.0 then invalid_arg "Metrics.percentile: p out of range";
  let sorted = Array.copy cs in
  Array.sort Int.compare sorted;
  (* nearest-rank: the value at 1-based rank [ceil (p * n)] — the same
     convention Obs.Histogram uses, so a percentile printed by a report and
     one read from a profile artifact can be compared directly *)
  let rank =
    if p <= 0.0 then 1
    else max 1 (min n (int_of_float (ceil (p *. float_of_int n))))
  in
  sorted.(rank - 1)

let max_completion ?what cs =
  if Array.length cs = 0 then empty_arg "Metrics.max_completion" what;
  Array.fold_left max cs.(0) cs

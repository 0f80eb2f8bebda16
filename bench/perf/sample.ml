(* Order statistics shared by the workloads, the result file and [compare]. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a

(* Nearest-rank: the 1-based rank of percentile [p] among [n] samples is
   [ceil (p * n)], at least 1 — the convention Core.Metrics.percentile and
   Obs.Histogram already use. *)
let rank p n =
  if p < 0.0 || p > 1.0 then invalid_arg "Sample.rank: p outside [0, 1]";
  max 1 (int_of_float (Float.ceil (p *. float_of_int n)))

let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Sample.percentile: no samples";
  (sorted xs).(rank p n - 1)

(* A percentile is reported only with at least ten samples strictly above
   it; otherwise it is one of the few largest samples, not a percentile. *)
let supported p n = n > 0 && n - rank p n >= 10

let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Sample.median: no samples";
  let a = sorted xs in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Sample.mean: no samples";
  Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads printed here agree with a
   check written in Python against the same runs. *)
let quartiles xs =
  let ld = Array.length xs in
  if ld < 2 then invalid_arg "Sample.quartiles: needs two samples";
  let a = sorted xs in
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 3)

(* Interquartile distance as a share of the median. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let med = median xs in
  if med = 0.0 then if q3 = q1 then 0.0 else Float.infinity
  else (q3 -. q1) /. Float.abs med

open Matrix
open Matching

type schedule = (Bipartite.matching * int) list

(* Step 1 of Algorithm 1.  Repeatedly add p units at (argmin row, argmin
   column); each step saturates at least one more row or column at rho, so at
   most 2m - 1 iterations run. *)
let augment d =
  let m = Mat.dim d in
  let rho = Mat.load d in
  let t = Mat.copy d in
  let rows = Mat.row_sums t and cols = Mat.col_sums t in
  let argmin a =
    let best = ref 0 in
    for i = 1 to m - 1 do
      if a.(i) < a.(!best) then best := i
    done;
    !best
  in
  let min_sum () = min rows.(argmin rows) cols.(argmin cols) in
  while min_sum () < rho do
    let i = argmin rows and j = argmin cols in
    let p = min (rho - rows.(i)) (rho - cols.(j)) in
    (* p > 0: both the minimum row and the minimum column are below rho *)
    Mat.add_entry t i j p;
    rows.(i) <- rows.(i) + p;
    cols.(j) <- cols.(j) + p
  done;
  t

(* Step 2, implemented incrementally: after peeling q * Pi only the matched
   pairs whose entries reached zero lose their edges, so instead of
   rebuilding the support graph and recomputing a perfect matching from
   scratch (O (m^2) times O (E sqrt V)), the previous matching is kept and
   only the rows whose matched edge vanished are re-augmented with a Kuhn
   DFS over the current support.  Correctness is unchanged — Hall's theorem
   guarantees the augmentations succeed on a doubly-balanced matrix — and
   large fabrics (the paper's 150 ports) become practical. *)
let decompose d =
  let m = Mat.dim d in
  let rho = Mat.load d in
  for p = 0 to m - 1 do
    if Mat.row_sum d p <> rho || Mat.col_sum d p <> rho then
      invalid_arg "Bvn.decompose: matrix is not doubly balanced"
  done;
  if rho = 0 then []
  else begin
    let t = Mat.copy d in
    (* row -> matched column and back; -1 = unmatched *)
    let match_col = Array.make m (-1) in
    let match_row = Array.make m (-1) in
    let visited = Array.make m 0 in
    let stamp = ref 0 in
    (* Kuhn augmentation over the support of [t]: each row offers only its
       nonzero columns, ascending, so a DFS costs the live support, not
       m^2 *)
    let rec augment i =
      let rec scan s =
        match s () with
        | Seq.Nil -> false
        | Seq.Cons ((j, _), rest) ->
          if visited.(j) <> !stamp then begin
            visited.(j) <- !stamp;
            if match_row.(j) = -1 || augment match_row.(j) then begin
              match_col.(i) <- j;
              match_row.(j) <- i;
              true
            end
            else scan rest
          end
          else scan rest
      in
      scan (Mat.row_seq t i)
    in
    let rematch i =
      incr stamp;
      if not (augment i) then
        (* impossible on a doubly-balanced matrix (Hall) *)
        invalid_arg "Bvn.decompose: support lost its perfect matching"
    in
    for i = 0 to m - 1 do
      rematch i
    done;
    let remaining = ref rho in
    let acc = ref [] in
    while !remaining > 0 do
      let q = ref max_int in
      for i = 0 to m - 1 do
        let v = Mat.get t i match_col.(i) in
        if v < !q then q := v
      done;
      let q = !q in
      let matching = Array.to_list (Array.mapi (fun i j -> (i, j)) match_col) in
      acc := (matching, q) :: !acc;
      remaining := !remaining - q;
      (* subtract and repair the rows whose matched entry vanished *)
      let broken = ref [] in
      for i = 0 to m - 1 do
        let j = match_col.(i) in
        Mat.add_entry t i j (-q);
        if Mat.get t i j = 0 then broken := i :: !broken
      done;
      if !remaining > 0 then
        List.iter
          (fun i ->
            let j = match_col.(i) in
            if match_row.(j) = i then match_row.(j) <- -1;
            match_col.(i) <- -1;
            rematch i)
          !broken
    done;
    List.rev !acc
  end

let c_matchings = Obs.Counter.make "bvn.matchings"

let h_build = Obs.Histogram.make "bvn.build_size"

let schedule d =
  Obs.Span.with_ "bvn.schedule" @@ fun () ->
  let s = decompose (augment d) in
  Obs.Counter.incr c_matchings ~by:(List.length s);
  Obs.Histogram.observe h_build (List.length s);
  s

let duration s = List.fold_left (fun acc (_, q) -> acc + q) 0 s

let matchings_used = List.length

let restore m s =
  let d = Mat.make m in
  List.iter
    (fun (matching, q) ->
      List.iter (fun (i, j) -> Mat.add_entry d i j q) matching)
    s;
  d

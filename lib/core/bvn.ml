open Matrix

type schedule = (int array * int) list

(* Algorithm 1 runs on a dense working copy of its input, made once per
   call: entry (i, j) at [v.(i * m + j)], row [i]'s column support in
   [words] {!Bits} words from [mask.(i * words)], and the row and column
   sums.  Both steps read and write the copy in place, so no [Mat] call
   runs per step, peeled entry or DFS probe: the dev build compiles every
   unit [-opaque] and never inlines a call into another.  The one such
   call left per probe is [Bits.ntz].  The copy is m^2 + m * words + 2m
   words: 32 KiB at 64 ports, 176 KiB at 150. *)
type work = {
  m : int;
  words : int;
  v : int array;
  mask : int array;
  rows : int array;
  cols : int array;
}

let work_of d =
  let m = Mat.dim d in
  let words = Bits.words_for m in
  let v = Array.make (m * m) 0 in
  Mat.iter_nonzero (fun i j x -> v.((i * m) + j) <- x) d;
  let mask = Array.make (m * words) 0 in
  for i = 0 to m - 1 do
    for w = 0 to words - 1 do
      mask.((i * words) + w) <- Mat.row_mask d i w
    done
  done;
  { m; words; v; mask; rows = Mat.row_sums d; cols = Mat.col_sums d }

let load t = Array.fold_left Int.max (Array.fold_left Int.max 0 t.rows) t.cols

let argmin a =
  let best = ref 0 in
  for i = 1 to Array.length a - 1 do
    if a.(i) < a.(!best) then best := i
  done;
  !best

(* Step 1 of Algorithm 1.  Repeatedly add p units at (argmin row, argmin
   column); each step saturates at least one more row or column at rho, so
   at most 2m - 1 iterations run.  The augmented total is m * rho, which a
   [Mat] could not hold past [max_int]: refused up front, so [schedule]
   and [decompose (augment d)] fail alike. *)
let augment_work t =
  let m = t.m in
  let rho = load t in
  if rho > max_int / m then
    invalid_arg "Bvn.augment: ports x load would push the total past max_int";
  let balanced = ref false in
  while not !balanced do
    let i = argmin t.rows and j = argmin t.cols in
    if Int.min t.rows.(i) t.cols.(j) < rho then begin
      (* p > 0: both the minimum row and the minimum column are below rho *)
      let p = Int.min (rho - t.rows.(i)) (rho - t.cols.(j)) in
      let k = (i * m) + j in
      if t.v.(k) = 0 then begin
        let w = (i * t.words) + (j / Bits.bits_per_word) in
        t.mask.(w) <- t.mask.(w) lor (1 lsl (j mod Bits.bits_per_word))
      end;
      t.v.(k) <- t.v.(k) + p;
      t.rows.(i) <- t.rows.(i) + p;
      t.cols.(j) <- t.cols.(j) + p
    end
    else balanced := true
  done

let augment d =
  let t = work_of d in
  augment_work t;
  Mat.of_arrays (Array.init t.m (fun i -> Array.sub t.v (i * t.m) t.m))

(* Step 2, implemented incrementally: after peeling q * Pi only the matched
   pairs whose entries reached zero lose their edges, so instead of
   rebuilding the support graph and recomputing a perfect matching from
   scratch (O (m^2) times O (E sqrt V)), the previous matching is kept and
   only the rows whose matched edge vanished are re-augmented with a Kuhn
   DFS over the current support.  Correctness is unchanged — Hall's theorem
   guarantees the augmentations succeed on a doubly-balanced matrix — and
   large fabrics (the paper's 150 ports) become practical.

   The DFS walks each row's support bitset minus a visited-column bitset,
   lowest bit first, re-reading the lowest unvisited bit after a failed
   branch: ascending columns, skipping visited ones.  That order fixes
   which matchings come out and in what order, which every schedule
   golden pins.

   Matched entries are peeled in the working copy; an entry that reaches
   zero leaves the support before the repair, so the DFS sees the current
   support.  A matching costs O(m) plus its repair, and writes no matrix.

   [bvn.dfs_probes] counts the columns the DFS tries (each sets a visited
   bit), summed over the call and added once at its end. *)
let c_dfs_probes = Obs.Counter.make "bvn.dfs_probes"

let decompose_work t =
  let m = t.m and words = t.words and v = t.v and mask = t.mask in
  let rho = load t in
  for p = 0 to m - 1 do
    if t.rows.(p) <> rho || t.cols.(p) <> rho then
      invalid_arg "Bvn.decompose: matrix is not doubly balanced"
  done;
  if rho = 0 then []
  else begin
    let bpw = Bits.bits_per_word in
    (* row -> matched column and back; -1 = unmatched *)
    let match_col = Array.make m (-1) in
    let match_row = Array.make m (-1) in
    let visited = Array.make words 0 in
    let broken = Array.make m 0 in
    let probes = ref 0 in
    let rec augment i =
      let found = ref false and w = ref 0 in
      while (not !found) && !w < words do
        let cand = mask.((i * words) + !w) land lnot visited.(!w) in
        if cand = 0 then incr w
        else begin
          let b = cand land -cand in
          visited.(!w) <- visited.(!w) lor b;
          incr probes;
          let j = (!w * bpw) + Bits.ntz b in
          if match_row.(j) = -1 || augment match_row.(j) then begin
            match_col.(i) <- j;
            match_row.(j) <- i;
            found := true
          end
        end
      done;
      !found
    in
    let rematch i =
      Array.fill visited 0 words 0;
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
        let x = v.((i * m) + match_col.(i)) in
        if x < !q then q := x
      done;
      let q = !q in
      acc := (Array.copy match_col, q) :: !acc;
      remaining := !remaining - q;
      (* peel, drop the vanished entries from the support, then repair
         their rows in descending order *)
      let nb = ref 0 in
      for i = 0 to m - 1 do
        let j = match_col.(i) in
        let k = (i * m) + j in
        v.(k) <- v.(k) - q;
        if v.(k) = 0 then begin
          let w = (i * words) + (j / bpw) in
          mask.(w) <- mask.(w) lxor (1 lsl (j mod bpw));
          broken.(!nb) <- i;
          incr nb
        end
      done;
      if !remaining > 0 then
        for b = !nb - 1 downto 0 do
          let i = broken.(b) in
          let j = match_col.(i) in
          if match_row.(j) = i then match_row.(j) <- -1;
          match_col.(i) <- -1;
          rematch i
        done
    done;
    Obs.Counter.incr c_dfs_probes ~by:!probes;
    List.rev !acc
  end

let decompose d = decompose_work (work_of d)

let c_matchings = Obs.Counter.make "bvn.matchings"

let h_build = Obs.Histogram.make "bvn.build_size"

let schedule d =
  Obs.Span.with_ "bvn.schedule" @@ fun () ->
  let t = work_of d in
  augment_work t;
  let s = decompose_work t in
  Obs.Counter.incr c_matchings ~by:(List.length s);
  Obs.Histogram.observe h_build (List.length s);
  s

let duration s = List.fold_left (fun acc (_, q) -> acc + q) 0 s

let matchings_used = List.length

let pairs matching = Array.to_list (Array.mapi (fun i j -> (i, j)) matching)

open Matrix

type schedule = (int array * int) list

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
   large fabrics (the paper's 150 ports) become practical.

   The DFS walks each row's support bitset minus a visited-column bitset,
   lowest bit first, re-reading the lowest unvisited bit after a failed
   branch: ascending columns, skipping visited ones.  That order fixes
   which matchings come out and in what order, which every schedule
   golden pins.

   Matched entries live in [value] and are peeled there; [t] is written
   only when an entry leaves the matching — at once when it reaches zero
   (before the repair, so the DFS sees the same support), and when an
   augmenting path moves its row.  [held.(i)] is the value [t] still holds
   for row [i]'s matched entry, or -1 when [t] is exact and [value.(i)]
   has yet to be read.  A matching costs O(m) plus the repair and one map
   write per entry that leaves it.

   [bvn.dfs_probes] counts the columns the DFS tries (each sets a visited
   bit), summed over the call and added once at its end. *)
let c_dfs_probes = Obs.Counter.make "bvn.dfs_probes"

let decompose_in_place t =
  let m = Mat.dim t in
  let rho = Mat.load t in
  for p = 0 to m - 1 do
    if Mat.row_sum t p <> rho || Mat.col_sum t p <> rho then
      invalid_arg "Bvn.decompose: matrix is not doubly balanced"
  done;
  if rho = 0 then []
  else begin
    let words = Bits.words_for m and bpw = Bits.bits_per_word in
    (* row -> matched column and back; -1 = unmatched *)
    let match_col = Array.make m (-1) in
    let match_row = Array.make m (-1) in
    let value = Array.make m 0 in
    let held = Array.make m (-1) in
    let visited = Array.make words 0 in
    let broken = Array.make m 0 in
    let probes = ref 0 in
    (* row [i] leaves its matched entry: write back what was peeled *)
    let leave i =
      let j = match_col.(i) in
      if j >= 0 && held.(i) >= 0 then begin
        if held.(i) <> value.(i) then
          Mat.replace t i j ~old:held.(i) value.(i);
        held.(i) <- -1
      end
    in
    let rec augment i =
      let found = ref false and w = ref 0 in
      while (not !found) && !w < words do
        let cand = Mat.row_mask t i !w land lnot visited.(!w) in
        if cand = 0 then incr w
        else begin
          let b = cand land -cand in
          visited.(!w) <- visited.(!w) lor b;
          incr probes;
          let j = (!w * bpw) + Bits.ntz b in
          if match_row.(j) = -1 || augment match_row.(j) then begin
            leave i;
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
        if held.(i) < 0 then begin
          held.(i) <- Mat.get t i match_col.(i);
          value.(i) <- held.(i)
        end;
        if value.(i) < !q then q := value.(i)
      done;
      let q = !q in
      acc := (Array.copy match_col, q) :: !acc;
      remaining := !remaining - q;
      (* peel, write the vanished entries, then repair their rows in
         descending order *)
      let nb = ref 0 in
      for i = 0 to m - 1 do
        value.(i) <- value.(i) - q;
        if value.(i) = 0 then begin
          leave i;
          broken.(!nb) <- i;
          incr nb
        end
      done;
      if !remaining > 0 then
        for b = !nb - 1 downto 0 do
          let i = broken.(b) in
          leave i;
          let j = match_col.(i) in
          if match_row.(j) = i then match_row.(j) <- -1;
          match_col.(i) <- -1;
          rematch i
        done
    done;
    Obs.Counter.incr c_dfs_probes ~by:!probes;
    List.rev !acc
  end

let decompose d = decompose_in_place (Mat.copy d)

let c_matchings = Obs.Counter.make "bvn.matchings"

let h_build = Obs.Histogram.make "bvn.build_size"

let schedule d =
  Obs.Span.with_ "bvn.schedule" @@ fun () ->
  let s = decompose_in_place (augment d) in
  Obs.Counter.incr c_matchings ~by:(List.length s);
  Obs.Histogram.observe h_build (List.length s);
  s

let duration s = List.fold_left (fun acc (_, q) -> acc + q) 0 s

let matchings_used = List.length

let pairs matching = Array.to_list (Array.mapi (fun i j -> (i, j)) matching)

let restore m s =
  let d = Mat.make m in
  List.iter
    (fun (matching, q) ->
      Array.iteri (fun i j -> Mat.add_entry d i j q) matching)
    s;
  d

(* Bit-twiddling helpers for bitsets packed into native OCaml ints,
   re-exported as [Matrix.Bits].  They are defined here, in [Mat]'s own
   unit, because the kernels below run them once per entry they locate:
   the dev build compiles every module [-opaque], so a call into another
   unit is never inlined, while these are.

   A word carries [bits_per_word] = 62 payload bits (bits 0..61), so
   [(1 lsl n) - 1] is well-defined for every partial word and the sign
   bit is never touched: words can be compared with [<> 0] and combined
   with [land]/[lor]/[lnot] without overflow surprises on 63-bit ints. *)
module Bits = struct
  let bits_per_word = 62

  let words_for n = (n + bits_per_word - 1) / bits_per_word

  let word_of b = b / bits_per_word

  let bit_of b = b mod bits_per_word

  (* mask with the [n] low bits set, 0 <= n <= bits_per_word *)
  let[@inline] low_mask n = if n = 0 then 0 else (1 lsl n) - 1

  (* Branch-free SWAR count over the 62 payload bits: bit pairs, then
     nibbles, then bytes, summed into the top byte by one multiply.  The
     masks stop below the sign bit, and the byte sums (at most 62) never
     carry, so 63-bit wrap-around cannot disturb the top byte. *)
  let[@inline] popcount x =
    let x = x - ((x lsr 1) land 0x1555555555555555) in
    let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
    let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
    (x * 0x0101010101010101) lsr 56

  (* number of trailing zeros; [x] must be nonzero with only payload bits
     set.  [x land -x] isolates the lowest set bit, and one less than it
     is a mask of exactly the bits below: the zeros it trails. *)
  let[@inline] ntz x = popcount ((x land -x) - 1)
end

(* Sparse nonnegative integer matrix: the one demand representation.

   Row i's strictly positive entries are packed, in ascending column
   order, at the front of one int array [vals.(i)].  Which columns they
   belong to is read off the row's column-support bitset, which the
   matching kernels need anyway: column j sits at the rank of bit j in
   that bitset, the number of set bits below it.  A read is a bit test
   plus at most [words] popcounts; a write to a present entry is one
   store; inserting or removing an entry shifts the row's tail by one
   slot, and a full row doubles its array (minimum 4).  Row sums, column
   sums, the nonzero count and the grand total are maintained
   incrementally, so every aggregate query is O(1) (O(m) for [load]).

   Iteration order is a contract: [iter_nonzero] visits entries row-major
   (row ascending, then column ascending).  Greedy matchings, BvN
   decompositions and every golden depend on it.

   The layout is flat so a small matrix stays as small as a dense one:
   besides the packed rows, every aggregate lives in one [aux] int array
   (one block for the GC to promote and copy, not one per view). *)

type t = {
  m : int;
  words : int; (* Bits.words_for m *)
  vals : int array array;
      (* vals.(i): row i's values > 0 in column order, then spare slots *)
  aux : int array;
      (* row i's sum at i; column j's sum at m + j; from 2m, the live-row
         set (bit i iff row i has a nonzero) in [words] words, then row
         i's column support at 2m + (i + 1) * words *)
  mutable nnz : int;
  mutable total : int;
}

let make m =
  if m <= 0 then invalid_arg "Mat.make: dimension must be positive";
  let words = Bits.words_for m in
  { m;
    words;
    vals = Array.make m [||];
    aux = Array.make ((2 * m) + ((m + 1) * words)) 0;
    nnz = 0;
    total = 0;
  }

let dim d = d.m

let check_index d i j =
  if i < 0 || i >= d.m || j < 0 || j >= d.m then
    invalid_arg
      (Printf.sprintf "Mat: index (%d, %d) out of range for %dx%d matrix" i j
         d.m d.m)

let row_base d i = (2 * d.m) + ((i + 1) * d.words)

(* Row i's entries strictly left of column j: the support bits below
   bit j. *)
let rank d i j =
  let base = row_base d i and w = Bits.word_of j in
  let r =
    ref (Bits.popcount (d.aux.(base + w) land Bits.low_mask (Bits.bit_of j)))
  in
  for v = 0 to w - 1 do
    r := !r + Bits.popcount d.aux.(base + v)
  done;
  !r

let row_nnz d i =
  let base = row_base d i and r = ref 0 in
  for w = 0 to d.words - 1 do
    r := !r + Bits.popcount d.aux.(base + w)
  done;
  !r

let stored d i j =
  d.aux.(row_base d i + Bits.word_of j) land (1 lsl Bits.bit_of j) <> 0

let find d i j = if stored d i j then d.vals.(i).(rank d i j) else 0

let get d i j =
  check_index d i j;
  find d i j

let flip d k b = d.aux.(k) <- d.aux.(k) lxor (1 lsl b)

(* Open a slot for a new entry at position [r] of row i, which holds [n]
   entries. *)
let insert_slot d i r n =
  let row = d.vals.(i) in
  let row =
    if n < Array.length row then row
    else begin
      let grown = Array.make (max 4 (2 * n)) 0 in
      Array.blit row 0 grown 0 n;
      d.vals.(i) <- grown;
      grown
    end
  in
  Array.blit row r row (r + 1) (n - r);
  row

let overflow i j =
  invalid_arg
    (Printf.sprintf "Mat: entry (%d, %d) would push the total past max_int" i j)

(* The single mutation point: replace [old] (the current entry) by [v]
   (>= 0) at (i, j) and keep every aggregate in sync.  Row and column
   sums never exceed the total, so the one overflow test covers all
   three, and it runs before anything is written. *)
let put d i j ~old v =
  if v <> old then begin
    if v - old > max_int - d.total then overflow i j;
    if old > 0 && v > 0 then d.vals.(i).(rank d i j) <- v
    else begin
      let r = rank d i j and n = row_nnz d i in
      if v = 0 then Array.blit d.vals.(i) (r + 1) d.vals.(i) r (n - r - 1)
      else (insert_slot d i r n).(r) <- v;
      d.nnz <- (if old = 0 then d.nnz + 1 else d.nnz - 1);
      flip d (row_base d i + Bits.word_of j) (Bits.bit_of j)
    end;
    let was_live = d.aux.(i) > 0 in
    d.aux.(i) <- d.aux.(i) + v - old;
    d.aux.(d.m + j) <- d.aux.(d.m + j) + v - old;
    d.total <- d.total + v - old;
    if was_live <> (d.aux.(i) > 0) then
      flip d ((2 * d.m) + Bits.word_of i) (Bits.bit_of i)
  end

let set d i j v =
  check_index d i j;
  if v < 0 then invalid_arg "Mat.set: negative entry";
  put d i j ~old:(find d i j) v

let add_entry d i j dv =
  check_index d i j;
  let old = find d i j in
  if dv > max_int - old then overflow i j;
  if old + dv < 0 then invalid_arg "Mat.add_entry: entry would become negative";
  put d i j ~old (old + dv)

let replace d i j ~old v =
  check_index d i j;
  if v < 0 then invalid_arg "Mat.replace: negative entry";
  put d i j ~old v

let of_arrays rows =
  let m = Array.length rows in
  if m = 0 then invalid_arg "Mat.of_arrays: empty matrix";
  let d = make m in
  Array.iteri
    (fun i row ->
      if Array.length row <> m then invalid_arg "Mat.of_arrays: not square";
      Array.iteri
        (fun j v ->
          if v < 0 then invalid_arg "Mat.of_arrays: negative entry";
          put d i j ~old:0 v)
        row)
    rows;
  d

let copy d =
  { d with
    vals = Array.mapi (fun i row -> Array.sub row 0 (row_nnz d i)) d.vals;
    aux = Array.copy d.aux;
  }

let row_sum d i =
  if i < 0 || i >= d.m then invalid_arg "Mat.row_sum: index out of range";
  d.aux.(i)

let col_sum d j =
  if j < 0 || j >= d.m then invalid_arg "Mat.col_sum: index out of range";
  d.aux.(d.m + j)

let row_sums d = Array.sub d.aux 0 d.m

let col_sums d = Array.sub d.aux d.m d.m

let total d = d.total

let load d =
  let best = ref 0 in
  for k = 0 to (2 * d.m) - 1 do
    if d.aux.(k) > !best then best := d.aux.(k)
  done;
  !best

let nonzero_count d = d.nnz

let is_zero d = d.nnz = 0

(* Row i's entries in column order: the support bits, lowest first, pair
   up with the packed values. *)
let iter_row f d i =
  let row = d.vals.(i) and base = row_base d i and r = ref 0 in
  for w = 0 to d.words - 1 do
    let x = ref d.aux.(base + w) in
    while !x <> 0 do
      let b = !x land - !x in
      x := !x lxor b;
      f i ((w * Bits.bits_per_word) + Bits.ntz b) row.(!r);
      incr r
    done
  done

let iter_nonzero f d =
  for i = 0 to d.m - 1 do
    iter_row f d i
  done

let map f d =
  let r = make d.m in
  iter_nonzero
    (fun i j v ->
      let v' = f v in
      if v' < 0 then invalid_arg "Mat.map: negative entry";
      put r i j ~old:0 v')
    d;
  r

(* A snapshot: later writes to [d] do not show in the sequence. *)
let row_seq d i =
  if i < 0 || i >= d.m then invalid_arg "Mat.row_seq: index out of range";
  let acc = ref [] in
  iter_row (fun _ j v -> acc := (j, v) :: !acc) d i;
  List.to_seq (List.rev !acc)

(* Unchecked beyond the array bound: the matching loops call these once
   per coflow and word on every decision. *)
let live_mask d w = d.aux.((2 * d.m) + w)

let row_mask d i w = d.aux.(row_base d i + w)

let first_col d i ~avail ~off =
  let base = row_base d i and w = ref 0 and j = ref (-1) in
  while !j < 0 && !w < d.words do
    let x = d.aux.(base + !w) land avail.(off + !w) in
    if x <> 0 then j := (!w * Bits.bits_per_word) + Bits.ntz x;
    incr w
  done;
  !j

(* [first_col] on every live row with a free source bit, rows ascending,
   each claim written into the caller's masks before the next row looks:
   the greedy sweep of one matrix in one call.  A claim clears only the
   row bit being iterated, so each word's candidate snapshot stays valid. *)
let claim_rows d ~src ~dst ~off ~out =
  let n = ref 0 in
  for w = 0 to d.words - 1 do
    let cand = ref (d.aux.((2 * d.m) + w) land src.(off + w)) in
    while !cand <> 0 do
      let b = !cand land - !cand in
      cand := !cand lxor b;
      let i = (w * Bits.bits_per_word) + Bits.ntz b in
      let base = row_base d i and v = ref 0 and x = ref 0 in
      while !x = 0 && !v < d.words do
        x := d.aux.(base + !v) land dst.(off + !v);
        incr v
      done;
      if !x <> 0 then begin
        let c = !x land - !x and wd = off + !v - 1 in
        src.(off + w) <- src.(off + w) lxor b;
        dst.(wd) <- dst.(wd) lxor c;
        out.(2 * !n) <- i;
        out.((2 * !n) + 1) <- ((!v - 1) * Bits.bits_per_word) + Bits.ntz c;
        incr n
      end
    done
  done;
  !n

(* The aggregates are functions of the entries, so equal [aux] arrays
   mean equal supports; the packed values are then compared up to each
   row's length, never over the spare slots. *)
let equal a b =
  a.m = b.m && a.nnz = b.nnz && a.total = b.total
  && Array.for_all2 Int.equal a.aux b.aux
  &&
  let ok = ref true and i = ref 0 in
  while !ok && !i < a.m do
    let ra = a.vals.(!i) and rb = b.vals.(!i) in
    for r = 0 to row_nnz a !i - 1 do
      if ra.(r) <> rb.(r) then ok := false
    done;
    incr i
  done;
  !ok

let is_diagonal d =
  let ok = ref true in
  iter_nonzero (fun i j _ -> if i <> j then ok := false) d;
  !ok

let diagonal v =
  let m = Array.length v in
  if m = 0 then invalid_arg "Mat.diagonal: empty vector";
  let d = make m in
  Array.iteri
    (fun i x ->
      if x < 0 then invalid_arg "Mat.diagonal: negative entry";
      put d i i ~old:0 x)
    v;
  d

(* one draw per cell, row-major: the stream every seeded caller relies on *)
let random ?(density = 0.5) ?(max_entry = 10) st m =
  if max_entry < 1 then invalid_arg "Mat.random: max_entry must be >= 1";
  let d = make m in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if Random.State.float st 1.0 < density then
        put d i j ~old:0 (1 + Random.State.int st max_entry)
    done
  done;
  d

let pp ppf d =
  Format.fprintf ppf "@[<v>";
  for i = 0 to d.m - 1 do
    if i > 0 then Format.fprintf ppf "@,";
    Format.fprintf ppf "[";
    for j = 0 to d.m - 1 do
      if j > 0 then Format.fprintf ppf " ";
      Format.fprintf ppf "%3d" (find d i j)
    done;
    Format.fprintf ppf "]"
  done;
  Format.fprintf ppf "@]"

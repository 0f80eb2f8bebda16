(* Sparse nonnegative integer matrix: the one demand representation.

   Each row is an ordered (column -> value) map holding only strictly
   positive entries; row sums, column sums, the nonzero count and the grand
   total are maintained incrementally, so the per-update cost is
   O(log row_nnz) and every aggregate query is O(1) (O(m) for [load]).

   Iteration order is a contract: [iter_nonzero] visits entries row-major
   (row ascending, then column ascending).  Greedy matchings, BvN
   decompositions and every golden depend on it.

   The layout is flat so a small matrix stays as small as a dense one:
   besides the row maps, every aggregate lives in one [aux] int array (one
   block for the GC to promote and copy, not one per view). *)

module Imap = Map.Make (Int)

type t = {
  m : int;
  words : int; (* Bits.words_for m *)
  rows : int Imap.t array; (* rows.(i): col -> value, values > 0 *)
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
    rows = Array.make m Imap.empty;
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

let find d i j = match Imap.find_opt j d.rows.(i) with Some v -> v | None -> 0

let get d i j =
  check_index d i j;
  find d i j

let flip d k b = d.aux.(k) <- d.aux.(k) lxor (1 lsl b)

let row_base d i = (2 * d.m) + ((i + 1) * d.words)

(* The single mutation point: replace [old] (the current entry) by [v]
   (>= 0) at (i, j) and keep every aggregate in sync. *)
let put d i j ~old v =
  if v <> old then begin
    d.rows.(i) <-
      (if v = 0 then Imap.remove j d.rows.(i) else Imap.add j v d.rows.(i));
    let was_live = d.aux.(i) > 0 in
    d.aux.(i) <- d.aux.(i) + v - old;
    d.aux.(d.m + j) <- d.aux.(d.m + j) + v - old;
    d.total <- d.total + v - old;
    if old = 0 || v = 0 then begin
      d.nnz <- (if old = 0 then d.nnz + 1 else d.nnz - 1);
      flip d (row_base d i + Bits.word_of j) (Bits.bit_of j)
    end;
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

let copy d = { d with rows = Array.copy d.rows; aux = Array.copy d.aux }

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

let iter_nonzero f d =
  for i = 0 to d.m - 1 do
    Imap.iter (f i) d.rows.(i)
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

let row_seq d i =
  if i < 0 || i >= d.m then invalid_arg "Mat.row_seq: index out of range";
  Imap.to_seq d.rows.(i)

(* Unchecked beyond the array bound: the matching loops call these once
   per coflow and word on every decision. *)
let live_mask d w = d.aux.((2 * d.m) + w)

let row_mask d i w = d.aux.(row_base d i + w)

(* Map shapes depend on insertion order, so equality must compare the
   bindings, never the trees: polymorphic [=] on [t] is wrong. *)
let equal a b =
  a.m = b.m && a.nnz = b.nnz && a.total = b.total
  && Array.for_all2 (Imap.equal Int.equal) a.rows b.rows

let same_dim a b =
  if a.m <> b.m then invalid_arg "Mat: dimension mismatch"

let leq a b =
  same_dim a b;
  let ok = ref true in
  iter_nonzero (fun i j v -> if v > find b i j then ok := false) a;
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

let to_string d = Format.asprintf "%a" pp d

(* Bit-twiddling helpers for bitsets packed into native OCaml ints.

   A word carries [bits_per_word] = 62 payload bits (bits 0..61), so
   [(1 lsl n) - 1] is well-defined for every partial word and the sign
   bit is never touched: words can be compared with [<> 0] and combined
   with [land]/[lor]/[lnot] without overflow surprises on 63-bit ints. *)

let bits_per_word = 62

let words_for n = (n + bits_per_word - 1) / bits_per_word

let word_of b = b / bits_per_word

let bit_of b = b mod bits_per_word

(* mask with the [n] low bits set, 0 <= n <= bits_per_word *)
let low_mask n = if n = 0 then 0 else (1 lsl n) - 1

(* number of trailing zeros; [x] must be nonzero with only payload bits
   set.  Unrolled binary search: ~6 branch-free steps, no table. *)
let ntz x =
  let n = ref 0 and x = ref x in
  if !x land 0xFFFFFFFF = 0 then begin
    n := !n + 32;
    x := !x lsr 32
  end;
  if !x land 0xFFFF = 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x land 0xFF = 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x land 0xF = 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x land 0x3 = 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x land 0x1 = 0 then incr n;
  !n

(* Branch-free SWAR count over the 62 payload bits: bit pairs, then
   nibbles, then bytes, summed into the top byte by one multiply.  The
   masks stop below the sign bit, and the byte sums (at most 62) never
   carry, so 63-bit wrap-around cannot disturb the top byte. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

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

(* Branch-free SWAR count over the 62 payload bits: bit pairs, then
   nibbles, then bytes, summed into the top byte by one multiply.  The
   masks stop below the sign bit, and the byte sums (at most 62) never
   carry, so 63-bit wrap-around cannot disturb the top byte. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

(* number of trailing zeros; [x] must be nonzero with only payload bits
   set.  [x land -x] isolates the lowest set bit, and one less than it is
   a mask of exactly the bits below: the zeros it trails. *)
let ntz x = popcount ((x land -x) - 1)

(** Helpers for bitsets packed into native OCaml ints, 62 payload bits
    per word (the sign bit is never used, so words are safe under
    [land]/[lor]/[lnot] and [<> 0] tests).  {!Mat} maintains per-row
    column-support bitsets and a live-row bitset in this layout; matching
    loops intersect them with free-port bitsets so one [land] replaces a
    scan over up to 62 ports. *)

val bits_per_word : int
(** 62. *)

val words_for : int -> int
(** [words_for n] — words needed for an [n]-bit set. *)

val word_of : int -> int
(** Word index holding bit [b]. *)

val bit_of : int -> int
(** Position of bit [b] within its word. *)

val low_mask : int -> int
(** [low_mask n] — word with the [n] low bits set;
    [0 <= n <= bits_per_word]. *)

val ntz : int -> int
(** Number of trailing zeros of a nonzero word with only payload bits
    set: the index of its lowest set bit, i.e. the first element of the
    set it encodes; branch-free (one {!popcount}). *)

val popcount : int -> int
(** Number of set bits of a word with only payload bits set (bits
    [0 .. bits_per_word - 1]); branch-free. *)

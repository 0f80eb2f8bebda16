(** Helpers for bitsets packed into native OCaml ints, 62 payload bits
    per word: {!Mat.Bits}, where each is defined and documented. *)

include module type of Mat.Bits

(** Sparse matrices of non-negative integers, the demand representation for
    coflows: entry [(i, j)] is the number of data units that must cross from
    ingress port [i] to egress port [j].

    All matrices are square ([m x m]) because the switch model in the paper
    is an [m x m] non-blocking crossbar.  Indices are 0-based.

    Only strictly positive entries are stored: row [i] packs its values,
    in ascending column order, into one int array, and column [j] sits at
    the rank of bit [j] in the row's column-support bitset (the number of
    set bits below it).  Row/column sums, the nonzero count and the total
    are kept up to date by every update, as are two bitset views in the
    {!Bits} layout (the live-row set and each row's column support) that
    matching loops intersect with free-port masks.  Every iterator visits
    entries row-major, column ascending.

    Costs below use [w = Bits.words_for m] (2 at 64 ports, 3 at 150) and
    [r] for a row's nonzero count.

    Matrices are mutable and their row arrays carry spare slots that
    depend on the order of updates: compare them with {!equal}, never
    with polymorphic [=]. *)

(** {1 Bitset words}

    Helpers for bitsets packed into native OCaml ints, 62 payload bits
    per word (the sign bit is never used, so words are safe under
    [land]/[lor]/[lnot] and [<> 0] tests).  A matrix keeps its live-row
    set and each row's column support in this layout; matching loops
    intersect them with free-port bitsets so one [land] replaces a scan
    over up to 62 ports.  Re-exported as [Matrix.Bits]; defined in this
    unit so that the kernels below inline them. *)
module Bits : sig
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
      set: the index of its lowest set bit, i.e. the first element of
      the set it encodes; branch-free (one {!popcount}). *)

  val popcount : int -> int
  (** Number of set bits of a word with only payload bits set (bits
      [0 .. bits_per_word - 1]); branch-free. *)
end

(** {1 Matrices} *)

type t

val make : int -> t
(** [make m] is the [m x m] zero matrix; O(m * w).  @raise
    Invalid_argument if [m <= 0]. *)

val of_arrays : int array array -> t
(** [of_arrays rows] builds a matrix from row-major arrays; O(m^2).  The
    input is copied.  @raise Invalid_argument if the array is not square,
    empty, or contains a negative entry, or if the entries sum past
    [max_int]. *)

val copy : t -> t
(** Independent copy in O(m * w + nnz): the aggregates, and each row
    packed into an array of exactly its length. *)

val dim : t -> int
(** Side length [m]. *)

val get : t -> int -> int -> int
(** [get d i j] is the demand from ingress [i] to egress [j]: a bit test
    and at most [w] popcounts.  @raise Invalid_argument on out-of-range
    indices. *)

val set : t -> int -> int -> int -> unit
(** [set d i j v] stores [v] at [(i, j)]: O(w) when the entry stays
    nonzero (or zero), O(w + r) when it appears or disappears, which
    shifts the row's tail (and may double its array).  @raise
    Invalid_argument on out-of-range indices, [v < 0], or a total that
    would pass [max_int]; the matrix is then unchanged. *)

val add_entry : t -> int -> int -> int -> unit
(** [add_entry d i j v] adds [v] (possibly negative) to entry [(i, j)];
    costs as {!set}.  @raise Invalid_argument if the result would be
    negative or the total would pass [max_int]; the matrix is then
    unchanged. *)

val replace : t -> int -> int -> old:int -> int -> unit
(** [replace d i j ~old v] stores [v] at [(i, j)], which must hold [old]
    now: one write and no lookup, for a caller that has just read the
    entry (the simulator's commit); costs as {!set}.  A wrong [old]
    corrupts the sums and bitsets.  @raise Invalid_argument on
    out-of-range indices, [v < 0], or a total that would pass
    [max_int]. *)

val row_sum : t -> int -> int
(** Total demand departing ingress port [i]; O(1). *)

val col_sum : t -> int -> int
(** Total demand arriving at egress port [j]; O(1). *)

val row_sums : t -> int array
(** Fresh array, O(m). *)

val col_sums : t -> int array
(** Fresh array, O(m). *)

val total : t -> int
(** Sum of all entries; O(1). *)

val load : t -> int
(** [load d] is [rho (d)] from the paper, Eq. (18): the maximum over all row
    sums and column sums; O(m).  It lower-bounds the number of slots needed
    to clear [d] in isolation, and Algorithm 1 meets it exactly. *)

val nonzero_count : t -> int
(** Number of strictly positive entries — the paper's [M'] ("M0") statistic
    used to filter sparse coflows; O(1). *)

val is_zero : t -> bool
(** O(1). *)

val map : (int -> int) -> t -> t
(** [map f d] applies [f] to every nonzero entry in row-major order (zeros
    stay zero); the results must be non-negative.  O(m * w + nnz). *)

val iter_nonzero : (int -> int -> int -> unit) -> t -> unit
(** [iter_nonzero f d] applies [f i j v] to every strictly positive entry in
    row-major order, column ascending; O(m * w + nnz).  [f] must not
    mutate [d]: collect first, then write. *)

val row_seq : t -> int -> (int * int) Seq.t
(** Row [i]'s [(column, value)] nonzeros, column ascending: a snapshot
    taken at the call, O(w + r). *)

val live_mask : t -> int -> int
(** Word [w] ([0 <= w < Bits.words_for m]) of the live-row bitset: bit
    [i] is set iff row [w * Bits.bits_per_word + i] has a nonzero.
    Hot path: indices are not checked beyond the underlying array's
    bound. *)

val row_mask : t -> int -> int -> int
(** [row_mask d i w] — word [w] of row [i]'s column-support bitset
    ([0 <= i < m]); unchecked like {!live_mask}. *)

val first_col : t -> int -> avail:int array -> off:int -> int
(** [first_col d i ~avail ~off] — the lowest column [j] of row [i] with a
    nonzero whose bit is set in [avail.(off + Bits.word_of j)], or [-1]
    when there is none: the first usable destination of a source row in
    one call, O(w).  [avail] holds [w] words from [off] in the {!Bits}
    layout; [i] is unchecked like {!live_mask}. *)

val claim_rows :
  t -> src:int array -> dst:int array -> off:int -> out:int array -> int
(** [claim_rows d ~src ~dst ~off ~out] — the greedy claim sweep of one
    matrix, returning the number [n] of pairs claimed.  Live rows [i]
    whose bit is set in [src.(off + Bits.word_of i)] are visited in
    ascending order; each takes the lowest column [j] of its support
    whose bit is set in [dst.(off + Bits.word_of j)], clears bit [i] of
    [src] and bit [j] of [dst], and stores the pair at [out.(2p)],
    [out.(2p + 1)] for claim [p].  A row with no such column claims
    nothing and keeps its [src] bit.

    This is {!first_col} called row by row over the same masks, each
    claim written before the next row is probed: the same pairs in the
    same order, with the same masks left behind, in one call of
    O(w + candidate rows · w).  [src] and [dst] hold [w] words from
    [off] in the {!Bits} layout and [out] at least [2 * dim d] ints;
    nothing is allocated. *)

val equal : t -> t -> bool
(** Same dimension and same entries, whatever order they were set in;
    O(m * w + nnz). *)

val is_diagonal : t -> bool

val diagonal : int array -> t
(** [diagonal v] is the matrix with [v] on the diagonal — the embedding of a
    concurrent-open-shop job (Appendix A). *)

val random : ?density:float -> ?max_entry:int -> Random.State.t -> int -> t
(** [random st m] draws an [m x m] matrix whose entries are positive with
    probability [density] (default [0.5]) and uniform on
    [1 .. max_entry] (default [10]) when positive.  One draw per cell in
    row-major order. *)

val pp : Format.formatter -> t -> unit
(** Every cell, zeros included, one bracketed row per line. *)

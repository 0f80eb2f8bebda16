(** Sparse matrices of non-negative integers, the demand representation for
    coflows: entry [(i, j)] is the number of data units that must cross from
    ingress port [i] to egress port [j].

    All matrices are square ([m x m]) because the switch model in the paper
    is an [m x m] non-blocking crossbar.  Indices are 0-based.

    Only strictly positive entries are stored, one ordered map per row.
    Row/column sums, the nonzero count and the total are kept up to date
    by every update, as are two bitset views in the {!Bits} layout (the
    live-row set and each row's column support) that matching loops
    intersect with free-port masks.  Every iterator visits entries
    row-major, column ascending.

    Matrices are mutable and their internal shape depends on insertion
    order: compare them with {!equal}, never with polymorphic [=]. *)

type t

val make : int -> t
(** [make m] is the [m x m] zero matrix.  @raise Invalid_argument if
    [m <= 0]. *)

val of_arrays : int array array -> t
(** [of_arrays rows] builds a matrix from row-major arrays.  The input is
    copied.  @raise Invalid_argument if the array is not square, empty, or
    contains a negative entry. *)

val copy : t -> t
(** Independent copy in O(m + words * m): the row maps are immutable and
    shared, only the arrays around them are copied. *)

val dim : t -> int
(** Side length [m]. *)

val get : t -> int -> int -> int
(** [get d i j] is the demand from ingress [i] to egress [j];
    O(log row nonzeros).  @raise Invalid_argument on out-of-range
    indices. *)

val set : t -> int -> int -> int -> unit
(** [set d i j v] stores [v] at [(i, j)].  @raise Invalid_argument on
    out-of-range indices or [v < 0]. *)

val add_entry : t -> int -> int -> int -> unit
(** [add_entry d i j v] adds [v] (possibly negative) to entry [(i, j)].
    @raise Invalid_argument if the result would be negative. *)

val replace : t -> int -> int -> old:int -> int -> unit
(** [replace d i j ~old v] stores [v] at [(i, j)], which must hold [old]
    now: one map write and no lookup, for a caller that has just read the
    entry (the simulator's commit).  A wrong [old] corrupts the sums and
    bitsets.  @raise Invalid_argument on out-of-range indices or
    [v < 0]. *)

val row_sum : t -> int -> int
(** Total demand departing ingress port [i]; O(1). *)

val col_sum : t -> int -> int
(** Total demand arriving at egress port [j]; O(1). *)

val row_sums : t -> int array

val col_sums : t -> int array

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

val map : (int -> int) -> t -> t
(** [map f d] applies [f] to every nonzero entry in row-major order (zeros
    stay zero); the results must be non-negative. *)

val iter_nonzero : (int -> int -> int -> unit) -> t -> unit
(** [iter_nonzero f d] applies [f i j v] to every strictly positive entry in
    row-major order, column ascending. *)

val row_seq : t -> int -> (int * int) Seq.t
(** Row [i]'s [(column, value)] nonzeros, column ascending. *)

val live_mask : t -> int -> int
(** Word [w] ([0 <= w < Bits.words_for m]) of the live-row bitset: bit
    [i] is set iff row [w * Bits.bits_per_word + i] has a nonzero.
    Hot path: indices are not checked beyond the underlying array's
    bound. *)

val row_mask : t -> int -> int -> int
(** [row_mask d i w] — word [w] of row [i]'s column-support bitset
    ([0 <= i < m]); unchecked like {!live_mask}. *)

val equal : t -> t -> bool
(** Same dimension and same entries, whatever order they were set in. *)

val leq : t -> t -> bool
(** Entrywise [<=] on matrices of equal dimension. *)

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

val to_string : t -> string

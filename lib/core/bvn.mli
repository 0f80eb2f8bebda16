(** Algorithm 1 of the paper: the integer Birkhoff–von Neumann
    decomposition.

    Any non-negative integer matrix [D] can be processed in exactly
    [rho (D)] slots using matchings (Lemma 4): augment [D] to a matrix whose
    every row and column sums to [rho (D)], then peel off perfect matchings
    of the support.  At most [2m - 1] augmentation steps and at most [m^2]
    distinct matchings are needed, so the schedule description is
    polynomial even when [rho (D)] is huge. *)

type schedule = (int array * int) list
(** Matchings with multiplicities: play each matching for its slot count, in
    order.  A matching is a perfect matching of the ports, destination per
    source: [matching.(i)] is the egress port matched to ingress [i].
    Durations are positive; total duration is [rho] of the input. *)

val augment : Matrix.Mat.t -> Matrix.Mat.t
(** Step 1: a matrix [D'] with [D <= D'] entrywise and every row and column
    of [D'] summing to [rho (D)].  The input is not modified. *)

val decompose : Matrix.Mat.t -> schedule
(** Step 2: decompose a doubly-balanced matrix into weighted permutation
    matrices.  The first matching is Kuhn's on the support, rows ascending
    and each row's columns ascending; after each peel the rows whose matched
    entry vanished are re-augmented, highest row first.  A matching costs
    O(m) words and time plus that repair, and one matrix write per entry that
    leaves the matching.  The input is not modified.
    @raise Invalid_argument if some row or column sum differs from [rho]. *)

val schedule : Matrix.Mat.t -> schedule
(** [augment] followed by [decompose]: the full Algorithm 1. *)

val duration : schedule -> int

val matchings_used : schedule -> int

val pairs : int array -> (int * int) list
(** A matching as [(src, dst)] pairs, source ascending. *)


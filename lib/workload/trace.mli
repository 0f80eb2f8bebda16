(** Plain-text trace format, one file per instance.

    Layout (whitespace-separated):
    {v
    coflow-trace v1
    <ports> <num_coflows>
    <id> <release> <weight> <nnz>
    <i> <j> <size>      (nnz lines)
    ...
    v}

    The format deliberately mirrors the public coflow-benchmark layout (one
    record per coflow, explicit sparse flows) so real traces can be converted
    with a one-line awk script. *)

val save : string -> Instance.t -> unit
(** Write the instance to a file.  @raise Sys_error on IO failure. *)

val load : string -> Instance.t
(** @raise Failure with a line-numbered message on malformed input.

    Beyond shape errors, the parser rejects semantically invalid records:
    non-positive port counts, negative coflow counts, duplicate coflow ids,
    negative release dates, NaN / non-positive weights, negative flow counts,
    out-of-range ports, non-positive flow sizes, a flow repeated within
    one coflow, a flow that would push its coflow's total past
    [max_int], and a coflow that would push the instance's total units,
    or its latest release plus them, past [max_int] (named at the
    coflow's own line). *)

val to_string : Instance.t -> string

val of_string : string -> Instance.t
(** Same validation and error reporting as {!load}. *)

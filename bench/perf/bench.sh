#!/bin/sh
# Builds perf.exe from the sources of the checkout it is run in, then runs
# one workload in that process:
#
#   sh bench/perf/bench.sh --workload paper_greedy --seed 1 --seconds 20 --trace 0
#
# Build messages go to stderr, so the result object stays the last line of
# stdout.  The build uses no shared cache and writes only under _build/.
set -eu
dune build --root . --cache=disabled -j 2 --display quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe bench "$@"

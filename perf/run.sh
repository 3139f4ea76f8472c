#!/bin/sh
# Build the compiler and the benchmark from source, then run one
# workload.  Run from the repository root:
#
#   sh perf/run.sh --workload build --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  Fails (non-zero, no result) when the build
# does.
set -e
DUNE_CACHE=disabled dune build --root . ./bin/speccc.exe ./perf/specbench.exe 1>&2
exec ./_build/default/perf/specbench.exe "$@"

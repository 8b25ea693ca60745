#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr, so the last line of stdout is the result.
set -e
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"

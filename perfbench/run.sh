#!/bin/sh
# Build the ephemeral CLI and the benchmark from this checkout, then run
# one benchmark pass:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the last stdout line is the result.
# The build stays inside the checkout (_build/, no shared dune cache).
set -eu
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an ephemeral checkout (dune-project, lib/ and bin/ not found)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . perfbench/bench.exe bin/main.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"

#!/usr/bin/env bash
# Build the program and the benchmark in this checkout, then run one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the checkout. Build logs go to stderr; the last
# line of stdout is the result object.
set -euo pipefail

if [[ ! -f dune-project || ! -f bin/dggt_cli.ml || ! -d lib ]]; then
  echo "perfbench: no dggt sources here; run from the root of a checkout" >&2
  exit 2
fi

# every file the build and the run write stays inside the checkout
mkdir -p .bench_tmp
export TMPDIR="$PWD/.bench_tmp"
export DUNE_CACHE=disabled

dune build --root . ./bin/dggt_cli.exe ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"

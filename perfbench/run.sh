#!/usr/bin/env bash
# One command for the repository benchmark:
#   bash perfbench/run.sh --workload cold-csv|warm-session|serve-mixed \
#        --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Builds the engine and the benchmark
# from source, then runs one measurement; the last stdout line is the JSON
# result. Build output goes to stderr.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of a RAW checkout (no dune-project/lib/bin here)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/bench.exe ./bin/rawq.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"

#!/usr/bin/env bash
# Build the benchmark from source and run it, from the repository root:
#   bash perfbench/run.sh --workload kernels --seed 1 --seconds 12 --trace 0
# Build output goes to stderr; the benchmark's report to stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: the program's sources are missing; run from a full checkout" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep every write inside it.
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"

#!/usr/bin/env bash
# Build the daemon and the benchmark from source, then run one workload:
#   bash nanobench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the repository root.  Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/nanodec_cli.exe nanobench/main.exe 1>&2
exec ./_build/default/nanobench/main.exe "$@"

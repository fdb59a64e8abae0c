#!/usr/bin/env bash
# Build the benchmark from the checkout's sources, then run it:
#   bash perfbench/run.sh --workload market_feed --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout; everything it writes stays inside it.
set -euo pipefail
export DUNE_CACHE=disabled
if ! command -v dune >/dev/null 2>&1 && command -v opam >/dev/null 2>&1; then
  eval "$(opam env 2>/dev/null)" || true
fi
dune build --root . ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe run "$@"

#!/usr/bin/env bash
# test_bench_compare.sh: fixture checks of bench_compare.sh's gates.  A
# gate whose key was renamed must fail the comparison, not pass it
# silently.  Run by `dune runtest`; needs bash, jq, awk and join.
set -euo pipefail

compare="$(cd "$(dirname "$0")" && pwd)/bench_compare.sh"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/base" "$work/fresh"

chaos() { # chaos SUPERVISED_KEY PLAIN_EPS
  printf '{"cores": 2, "plain_events_per_sec": %s, "%s": 95}\n' "$2" "$1"
}
ingest() { # ingest RATE_KEY EPS
  printf '{"rows": [{"batch": 1, "%s": %s}, {"batch": 64, "%s": %s}]}\n' \
    "$1" "$2" "$1" "$(($2 * 8))"
}
chaos supervised_events_per_sec 100 >"$work/base/BENCH_chaos.json"
ingest events_per_sec 1000 >"$work/base/BENCH_ingest.json"

gates=(
  --fail-below 'BENCH_ingest\.rows\..*events_per_sec' 0.4
  --fail-ratio-below BENCH_chaos.supervised_events_per_sec
  BENCH_chaos.plain_events_per_sec 0.90
)

# expect CODE DESCRIPTION: run the comparison on the fresh fixtures
expect() {
  local code=0
  "$compare" "${gates[@]}" "$work/base" "$work/fresh" \
    BENCH_chaos.json BENCH_ingest.json >"$work/out" 2>&1 || code=$?
  if [ "$code" != "$1" ]; then
    cat "$work/out"
    echo "test_bench_compare: $2: exit $code, expected $1" >&2
    exit 1
  fi
  echo "test_bench_compare: $2: exit $code (ok)"
}

chaos supervised_events_per_sec 101 >"$work/fresh/BENCH_chaos.json"
ingest events_per_sec 900 >"$work/fresh/BENCH_ingest.json"
expect 0 "every gated key present"

chaos supervised_eps 101 >"$work/fresh/BENCH_chaos.json"
expect 1 "ratio gate key renamed"

chaos supervised_events_per_sec 101 >"$work/fresh/BENCH_chaos.json"
ingest events_per_second 900 >"$work/fresh/BENCH_ingest.json"
expect 1 "regex gate matches no key"

ingest events_per_sec 300 >"$work/fresh/BENCH_ingest.json"
expect 1 "regex gate below its floor"

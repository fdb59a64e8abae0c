#!/usr/bin/env bash
# bench_compare.sh [GATES]... BASELINE_DIR FRESH_DIR BENCH.json...
#
# Compare the listed bench JSON files between a baseline directory (the
# committed copies, snapshotted before the suite ran) and a fresh
# directory (where the benches just wrote), and emit ONE merged markdown
# table for $GITHUB_STEP_SUMMARY.  Every numeric leaf is flattened to a
# "file.path value" pair with the file's basename (minus .json) as the
# leading path segment, so gates can address metrics across files:
# BENCH_oltp.shards.0.send_events_per_sec, BENCH_net.rows.3.events_per_sec.
#
# A file listed here is a claim that the suite refreshed it.  A committed
# baseline whose fresh copy is missing — or byte-identical, which means
# the bench never actually ran — fails the comparison: a silently skipped
# bench must not read as a green gate.  A fresh file with no baseline is
# fine (a brand-new bench has nothing to compare against yet).
#
# Gates (repeatable, in any order before the directories):
#   --fail-below PATH_REGEX MIN_RATIO
#       exit 1 if any metric whose flattened (file-prefixed) path matches
#       PATH_REGEX has fresh/baseline below MIN_RATIO, or if no metric
#       present on both sides matches.  Use generous floors — this is a
#       catastrophic-regression catch, not a benchmark; absolute numbers
#       swing by runner.
#   --fail-ratio-below NUM_PATH DEN_PATH MIN
#       exit 1 if fresh[NUM_PATH] / fresh[DEN_PATH] is below MIN.  Both
#       are exact file-prefixed paths within the fresh files; both sides
#       ran on the same box in the same run, so the floor can be tight.
#
# A gate that addresses no metric fails: a renamed key must not switch a
# gate off unseen.
set -euo pipefail

gate_regexes=()
gate_floors=()
ratio_nums=()
ratio_dens=()
ratio_floors=()
while true; do
  case "${1:-}" in
  --fail-below)
    gate_regexes+=("$2")
    gate_floors+=("$3")
    shift 3
    ;;
  --fail-ratio-below)
    ratio_nums+=("$2")
    ratio_dens+=("$3")
    ratio_floors+=("$4")
    shift 4
    ;;
  *) break ;;
  esac
done

if [ "$#" -lt 3 ]; then
  echo "usage: bench_compare.sh [gates] BASELINE_DIR FRESH_DIR BENCH.json..." >&2
  exit 2
fi
baseline_dir="$1"
fresh_dir="$2"
shift 2

fail=0

# Flatten every numeric leaf of $2 to "<prefix>.path value" lines.
flatten() {
  jq -r --arg prefix "$1" '
    paths(type == "number") as $p
    | "\($prefix).\($p | map(tostring) | join(".")) \(getpath($p))"
  ' "$2"
}

base_flat=""
fresh_flat=""
missing=()
for file in "$@"; do
  prefix="${file%.json}"
  base="$baseline_dir/$file"
  fresh="$fresh_dir/$file"
  if [ ! -e "$fresh" ]; then
    if [ -e "$base" ]; then
      missing+=("$file (no fresh results)")
      fail=1
    else
      echo "bench-compare: $file never ran and has no baseline, skipping"
    fi
    continue
  fi
  if [ -e "$base" ]; then
    if cmp -s "$base" "$fresh"; then
      # bench output embeds measured times; byte-identical means the
      # committed copy was never overwritten, i.e. the bench didn't run
      missing+=("$file (fresh copy identical to committed baseline)")
      fail=1
      continue
    fi
    base_flat+="$(flatten "$prefix" "$base")"$'\n'
  else
    echo "bench-compare: no baseline for $file, comparing fresh only"
  fi
  fresh_flat+="$(flatten "$prefix" "$fresh")"$'\n'
done

joined=$(join -a1 -a2 -e '-' -o 0,1.2,2.2 \
  <(printf '%s' "$base_flat" | sort) \
  <(printf '%s' "$fresh_flat" | sort))

awk '
    BEGIN {
      printf "\n### bench-compare\n\n"
      printf "| metric | baseline | fresh | ratio |\n"
      printf "|---|---:|---:|---:|\n"
    }
    NF == 3 {
      ratio = "-"
      if ($2 != "-" && $3 != "-" && $2 + 0 != 0)
        ratio = sprintf("%.2f", ($3 + 0) / ($2 + 0))
      printf "| %s | %s | %s | %s |\n", $1, $2, $3, ratio
    }' <<<"$joined"

if [ "${#missing[@]}" -gt 0 ]; then
  for m in "${missing[@]}"; do
    echo "bench-compare: FAIL committed baseline without a fresh run: $m" |
      tee /dev/stderr
  done
fi

for i in "${!gate_regexes[@]}"; do
  regex="${gate_regexes[$i]}"
  floor="${gate_floors[$i]}"
  matched=0
  while read -r path base_v fresh_v; do
    [ "$base_v" = "-" ] || [ "$fresh_v" = "-" ] && continue
    matched=1
    awk -v b="$base_v" -v f="$fresh_v" -v m="$floor" \
      'BEGIN { exit !(b > 0 && f / b < m) }' || continue
    echo "bench-compare: FAIL $path ratio $(awk -v b="$base_v" -v f="$fresh_v" \
      'BEGIN { printf "%.2f", f / b }') below floor $floor" >&2
    fail=1
  done < <(grep -E "^${regex} " <<<"$joined" || true)
  if [ "$matched" = 0 ]; then
    echo "bench-compare: FAIL gate $regex matches no metric present in both" \
      "baseline and fresh results" >&2
    fail=1
  fi
done

for i in "${!ratio_nums[@]}"; do
  num_path="${ratio_nums[$i]}"
  den_path="${ratio_dens[$i]}"
  floor="${ratio_floors[$i]}"
  num=$(awk -v p="$num_path" '$1 == p { print $2 }' <<<"$fresh_flat")
  den=$(awk -v p="$den_path" '$1 == p { print $2 }' <<<"$fresh_flat")
  if [ -z "$num" ] || [ -z "$den" ]; then
    echo "bench-compare: FAIL ratio gate $num_path / $den_path: path missing" \
      "from the fresh results" >&2
    fail=1
    continue
  fi
  if awk -v n="$num" -v d="$den" -v m="$floor" \
    'BEGIN { exit !(d > 0 && n / d < m) }'; then
    echo "bench-compare: FAIL $num_path / $den_path = $(awk -v n="$num" -v d="$den" \
      'BEGIN { printf "%.3f", n / d }') below floor $floor" >&2
    fail=1
  fi
done
exit "$fail"

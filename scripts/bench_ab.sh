#!/usr/bin/env bash
# bench_ab.sh — same-machine A/B of the repository benchmark (BENCHMARK.json):
#
#   bash scripts/bench_ab.sh <base-rev>
#
# Checks <base-rev> out as a detached git worktree in a temporary
# directory and compares it with the working tree as it is, uncommitted
# edits included. For seeds 1-3 and each workload it runs
# `perfbench/run.sh --trace 0` in both trees, base first in odd pairs and
# head first in even ones, for BENCHMARK.json's run_seconds. One traced
# figure4 run per side follows. Every result line lands in bench-ab.jsonl,
# tagged with side, workload, seed, trace and perfbench's exit code, and
# every run's stderr in bench-ab-logs/<side>-<workload>-<seed>-<trace>.log;
# a run that prints no result line ends the A/B with the last 20 lines of
# its log. The script then checks that
# every workload BENCHMARK.json declares has a run for each side and seed,
# and scripts/benchab judges the file (docs/BENCHMARKING.md gives the
# decision rule). benchab itself judges whichever workloads a file holds,
# so this completeness check is what keeps a partial A/B from passing.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: bash scripts/bench_ab.sh <base-rev>" >&2
  exit 2
fi
base_rev="$(git rev-parse --verify "$1^{commit}")"
head_dir="$(pwd)"
out="$head_dir/bench-ab.jsonl"
logs="$head_dir/bench-ab-logs"
secs="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)"
read -ra workloads <<<"$(sed -n 's/.*{"name": *"\([^"]*\)", *"why".*/\1/p' BENCHMARK.json | tr '\n' ' ')"
if [ ${#workloads[@]} -eq 0 ]; then
  echo "bench_ab: no workloads found in BENCHMARK.json" >&2
  exit 1
fi
seeds=(1 2 3)

tmp="$(mktemp -d)"
cleanup() {
  git -C "$head_dir" worktree remove --force "$tmp/base" 2>/dev/null || true
  chmod -R u+w "$tmp" 2>/dev/null || true
  rm -rf "$tmp"
  git -C "$head_dir" worktree prune
}
trap cleanup EXIT
git worktree add --detach --quiet "$tmp/base" "$base_rev"
: >"$out"
rm -rf "$logs"
mkdir -p "$logs"

# run <side> <workload> <seed> <trace> appends one tagged result line and
# keeps the run's stderr in its log.
run() {
  local dir="$head_dir" log="$logs/$1-$2-$3-$4.log" line code=0
  [ "$1" = base ] && dir="$tmp/base"
  echo "bench_ab: $1 $2 seed $3 trace $4" >&2
  line="$(
    cd "$dir"
    bash perfbench/run.sh --workload "$2" --seed "$3" --seconds "$secs" --trace "$4" 2>"$log" | tail -n 1
    exit "${PIPESTATUS[0]}"
  )" || code=$?
  case "$line" in
  '{'*) printf '{"side":"%s","workload":"%s","seed":%d,"trace":%d,"exit":%d,"result":%s}\n' "$1" "$2" "$3" "$4" "$code" "$line" >>"$out" ;;
  *)
    echo "bench_ab: $1 $2 seed $3 printed no result line (exit $code); last lines of $log:" >&2
    tail -n 20 "$log" >&2
    exit 1
    ;;
  esac
}

pair=0
for seed in "${seeds[@]}"; do
  for wl in "${workloads[@]}"; do
    pair=$((pair + 1))
    if [ $((pair % 2)) -eq 1 ]; then
      run base "$wl" "$seed" 0
      run head "$wl" "$seed" 0
    else
      run head "$wl" "$seed" 0
      run base "$wl" "$seed" 0
    fi
  done
done
run base figure4 1 1
run head figure4 1 1

for wl in "${workloads[@]}"; do
  for side in base head; do
    for seed in "${seeds[@]}"; do
      if ! grep -q "^{\"side\":\"$side\",\"workload\":\"$wl\",\"seed\":$seed,\"trace\":0," "$out"; then
        echo "bench_ab: no $side $wl seed $seed run in $out" >&2
        exit 1
      fi
    done
  done
done

go run ./scripts/benchab BENCHMARK.json "$out"

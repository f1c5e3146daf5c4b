#!/usr/bin/env bash
# bench_gate.sh — the one harness behind every committed BENCH_<pr>.json
# trajectory point and the CI regression gate. It runs the solver-path
# benchmarks with repeated samples, aggregates them into bench.json via
# scripts/benchgate, and fails when the run regresses against the last
# committed BENCH_*.json beyond the noise threshold.
#
# Environment knobs:
#   BENCH_GATE_COUNT      repeated samples per benchmark (default 5)
#   BENCH_GATE_BENCHTIME  -benchtime per sample (default 1s)
#   BENCH_GATE_PATTERN    -bench regexp (default: the cold-solve paths
#                         BenchmarkTable5Tailoring and BenchmarkFigure4,
#                         plus the concurrency trajectory —
#                         BenchmarkCacheHitParallel, BenchmarkServeSaturated
#                         and BenchmarkCampaignJob,
#                         the interactive-latency-under-background-jobs
#                         guarantee)
#   BENCH_GATE_OUT        aggregated JSON output (default bench.json)
#   BENCH_GATE_THRESHOLD  regression tolerance, percent or fraction
#                         (default 15; read by scripts/benchgate gate)
#   BENCH_GATE_PR         PR number to stamp into the JSON (optional; set
#                         when minting a BENCH_<pr>.json trajectory point)
#   BENCH_GATE_NOTE       free-form provenance note recorded in the JSON
#                         (e.g. the core count the point was minted on)
#   BENCH_GATE_SKIP_GATE  set to 1 to only produce the JSON (minting mode)
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${BENCH_GATE_COUNT:-5}"
BENCHTIME="${BENCH_GATE_BENCHTIME:-1s}"
PATTERN="${BENCH_GATE_PATTERN:-^(BenchmarkTable5Tailoring|BenchmarkFigure4|BenchmarkCacheHitParallel|BenchmarkServeSaturated|BenchmarkCampaignJob)\$}"
OUT="${BENCH_GATE_OUT:-bench.json}"
PR="${BENCH_GATE_PR:-0}"

raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

echo "bench_gate: running $PATTERN (count=$COUNT, benchtime=$BENCHTIME)" >&2
go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "$BENCHTIME" -count "$COUNT" . | tee "$raw"

go run ./scripts/benchgate parse \
  -in "$raw" -out "$OUT" -pr "$PR" -count "$COUNT" -benchtime "$BENCHTIME" \
  -note "${BENCH_GATE_NOTE:-}"

if [ "${BENCH_GATE_SKIP_GATE:-0}" = "1" ]; then
  echo "bench_gate: gate skipped (BENCH_GATE_SKIP_GATE=1)" >&2
  exit 0
fi
go run ./scripts/benchgate gate -current "$OUT"

#!/usr/bin/env bash
# wcetd smoke test: start the daemon, POST one single and one batch
# request, assert 200 + expected fields on both, assert that cmd/wcet on
# a stdin held open exits with the daemon's /v1/wcet bytes (and with
# -models ilpPtac, /v2/analyze's), POST a /v2/analyze
# request selecting a single model and assert exactly that model's
# estimate comes back, assert /v2/tables lists the seeded default table,
# round-trip a simulator-emitted calibration batch through /v2/calibrate,
# check live stats and the /v2/models listing, then SIGTERM and assert a
# clean (exit 0, drained) shutdown.
#
# A second phase exercises the campaign-job durability contract over the
# wire: start wcetd with a persistent -data dir, submit a 24-cell sweep,
# SIGKILL the daemon mid-job, restart it over the same dirs, and assert
# the job resumes from its checkpoint, finishes, and serves an artifact
# byte-identical to `cmd/experiments -only sweep -json` for the same grid;
# after a clean SIGTERM restart, the finished job's stream must be the
# bytes it served before.
#
# A third phase exercises the observability layer: metrics history fills
# and is queryable, a traced request's stored trace is retrievable by ID,
# the retired SLO surface stays gone (/v2/alerts is a 404, -slo-config is
# an unknown flag), and both history and traces survive SIGKILL + restart.
#
# `make serve-smoke` and CI's wcetd-smoke job both run exactly this.
set -euo pipefail

cd "$(dirname "$0")/.."

ADDR="${WCETD_ADDR:-127.0.0.1:18327}"
BIN="$(mktemp -d)/wcetd"
WORK="$(dirname "$BIN")"
trap 'rm -rf "$(dirname "$BIN")"' EXIT

go build -o "$BIN" ./cmd/wcetd

"$BIN" -addr "$ADDR" &
PID=$!
cleanup() {
  kill "$PID" 2>/dev/null || true
  rm -rf "$(dirname "$BIN")"
}
trap cleanup EXIT

for _ in $(seq 1 100); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$PID" 2>/dev/null; then
    echo "serve-smoke: wcetd died during startup" >&2
    exit 1
  fi
  sleep 0.1
done
curl -fsS "http://$ADDR/healthz" >/dev/null

SINGLE='{
  "scenario": 1,
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}'

echo "serve-smoke: single estimate"
single=$(curl -fsS -X POST "http://$ADDR/v1/wcet" -d "$SINGLE")
echo "$single" | grep -q '"ftc"'
echo "$single" | grep -q '"ilpPtac"'
echo "$single" | grep -q '"wcetCycles"'

echo "serve-smoke: cmd/wcet on an open stdin, byte-identical to the daemon"
CLI="$WORK/wcet"
go build -o "$CLI" ./cmd/wcet
FIFO="$WORK/stdin"
mkfifo "$FIFO"
# cli_vs_daemon PATH BODY [FLAG...]: POST BODY to PATH, then run cmd/wcet
# FLAG... on the single request through a stdin that this shell holds
# open (its fd 3 keeps the FIFO's write end), and assert that the CLI
# exits within 5 s and prints the daemon's bytes.
cli_vs_daemon() {
  local path=$1 body=$2 status=0
  shift 2
  curl -fsS -o "$WORK/daemon.json" -X POST "http://$ADDR$path" -d "$body"
  exec 3<>"$FIFO"
  printf '%s' "$SINGLE" >&3
  timeout 5 "$CLI" "$@" <"$FIFO" >"$WORK/cli.json" 3>&- || status=$?
  exec 3>&-
  if [ "$status" -ne 0 ]; then
    echo "serve-smoke: cmd/wcet${*:+ $*} exited $status on an open stdin (124: still reading after 5 s)" >&2
    exit 1
  fi
  if ! cmp -s "$WORK/daemon.json" "$WORK/cli.json"; then
    echo "serve-smoke: cmd/wcet${*:+ $*} output differs from POST $path" >&2
    diff "$WORK/daemon.json" "$WORK/cli.json" | head -20 >&2 || true
    exit 1
  fi
}
cli_vs_daemon /v1/wcet "$SINGLE"
cli_vs_daemon /v2/analyze '{
  "scenario": 1,
  "models": ["ilpPtac"],
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}' -models ilpPtac

echo "serve-smoke: batch"
batch=$(curl -fsS -X POST "http://$ADDR/v1/batch" -d '{
  "requests": [
    {
      "scenario": 1,
      "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
      "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
    },
    {
      "scenario": 2,
      "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
      "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
    }
  ]
}')
echo "$batch" | grep -q '"results"'
echo "$batch" | grep -q '"ilpPtac"'
if echo "$batch" | grep -q '"error"'; then
  echo "serve-smoke: batch contained errors:" >&2
  echo "$batch" >&2
  exit 1
fi

echo "serve-smoke: v2 single-model selection"
v2=$(curl -fsS -X POST "http://$ADDR/v2/analyze" -d '{
  "scenario": 1,
  "models": ["ftcFsb"],
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}')
echo "$v2" | grep -q '"estimates"'
echo "$v2" | grep -q '"name": "ftcFsb"'
echo "$v2" | grep -q '"wcetCycles"'
# Only the selected model may be present.
if echo "$v2" | grep -q '"name": "ilpPtac"'; then
  echo "serve-smoke: /v2/analyze returned an unselected model:" >&2
  echo "$v2" >&2
  exit 1
fi
if [ "$(echo "$v2" | grep -c '"name":')" -ne 1 ]; then
  echo "serve-smoke: /v2/analyze returned more than the one selected model:" >&2
  echo "$v2" >&2
  exit 1
fi

echo "serve-smoke: v2 tables list the seeded default"
tables=$(curl -fsS "http://$ADDR/v2/tables")
echo "$tables" | grep -q '"serving"'
echo "$tables" | grep -q 'tc27x/default'
serving=$(echo "$tables" | grep -o '"serving": "[0-9a-f]*"' | head -1 | grep -o '[0-9a-f]\{64\}')
if [ -z "$serving" ]; then
  echo "serve-smoke: /v2/tables serving id missing:" >&2
  echo "$tables" >&2
  exit 1
fi

echo "serve-smoke: v2 calibrate round-trip (simulator-emitted readings)"
cal=$(go run ./cmd/aurixsim -emit-readings -accesses 200 \
  | curl -fsS -X POST "http://$ADDR/v2/calibrate" --data-binary @-)
echo "$cal" | grep -q '"converged": true'
echo "$cal" | grep -q '"table"'
echo "$cal" | grep -q '"drift"'
# Calibrating the unchanged platform must reproduce the serving table:
# same content address, no drift.
if ! echo "$cal" | grep -q "\"id\": \"$serving\""; then
  echo "serve-smoke: calibrated table does not match the serving default:" >&2
  echo "$cal" >&2
  exit 1
fi
if echo "$cal" | grep -q '"drifted": true'; then
  echo "serve-smoke: unchanged platform reported drift:" >&2
  echo "$cal" >&2
  exit 1
fi

echo "serve-smoke: v2 model listing"
models=$(curl -fsS "http://$ADDR/v2/models")
echo "$models" | grep -q '"ftc"'
echo "$models" | grep -q '"ilpPtac"'
echo "$models" | grep -q '"templatePtac"'

echo "serve-smoke: stats"
stats=$(curl -fsS "http://$ADDR/v1/stats")
echo "$stats" | grep -q '"hits"'
echo "$stats" | grep -q '"misses"'
echo "$stats" | grep -q '"maxInFlight"'

echo "serve-smoke: metrics exposition"
# Re-post the first request so the result cache provably has a hit, then
# scrape /metrics and assert the key series exist with sane values.
curl -fsS -X POST "http://$ADDR/v1/wcet" -d "$SINGLE" >/dev/null
metrics=$(curl -fsS "http://$ADDR/metrics")
for series in wcetd_requests_total wcetd_cache_hits_total wcetd_cache_shard_contention_total \
              solver_warm_starts_total solver_ilp_solves_total solver_bb_nodes_total \
              analyzer_estimates_total campaign_cells_total; do
  if ! echo "$metrics" | grep -q "^# TYPE $series "; then
    echo "serve-smoke: /metrics missing $series" >&2
    exit 1
  fi
done
v1_requests=$(echo "$metrics" | grep '^wcetd_requests_total{endpoint="v1_wcet"}' | awk '{print $2}')
if [ -z "$v1_requests" ] || [ "$v1_requests" -lt 2 ]; then
  echo "serve-smoke: wcetd_requests_total{endpoint=\"v1_wcet\"} = '$v1_requests', want >= 2" >&2
  exit 1
fi
cache_hits=$(echo "$metrics" | grep '^wcetd_cache_hits_total ' | awk '{print $2}')
if [ -z "$cache_hits" ] || [ "$cache_hits" -lt 1 ]; then
  echo "serve-smoke: wcetd_cache_hits_total = '$cache_hits', want >= 1 (a request was repeated)" >&2
  exit 1
fi
ilp_solves=$(echo "$metrics" | grep '^solver_ilp_solves_total ' | awk '{print $2}')
if [ -z "$ilp_solves" ] || [ "$ilp_solves" -lt 1 ]; then
  echo "serve-smoke: solver_ilp_solves_total = '$ilp_solves', want >= 1" >&2
  exit 1
fi

echo "serve-smoke: request tracing"
# A body no earlier step submitted, so the trace walks the full miss path
# (cache → admission → evaluate → per-model solves), not a cache hit.
traced=$(curl -fsS -D /tmp/serve_smoke_headers.$$ -X POST "http://$ADDR/v1/wcet" \
  -H 'X-Wcet-Trace: 1' -d '{
  "scenario": 2,
  "analysed":   {"CCNT": 302500, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}')
grep -qi '^X-Wcet-Trace-Id:' /tmp/serve_smoke_headers.$$ || {
  echo "serve-smoke: traced response missing X-Wcet-Trace-Id header" >&2
  rm -f /tmp/serve_smoke_headers.$$
  exit 1
}
rm -f /tmp/serve_smoke_headers.$$
echo "$traced" | grep -q '"trace"'
echo "$traced" | grep -q '"response"'
echo "$traced" | grep -q '"spans"'
echo "$traced" | grep -q '"name":"model:ilpPtac"'
# The inline response must still carry the analysis payload.
echo "$traced" | grep -q '"ilpPtac"'

echo "serve-smoke: sharded cache telemetry"
# The per-shard contention series must expose at least shard 0.
metrics=$(curl -fsS "http://$ADDR/metrics")
if ! echo "$metrics" | grep -q '^wcetd_cache_shard_contention_total{shard="0"}'; then
  echo "serve-smoke: /metrics missing per-shard wcetd_cache_shard_contention_total series" >&2
  exit 1
fi

echo "serve-smoke: dashboard + stats stream"
# Pipes from curl or head end in a grep that reads all its input (no -q):
# a grep that exits at its first match closes the pipe under a writer
# still sending, and pipefail turns that writer's SIGPIPE (141) or
# curl's write error (23) into a spurious failure.
curl -fsS "http://$ADDR/v2/dashboard" | grep '/v2/stats/stream' >/dev/null
# The stream never ends on its own; cap it with -m and swallow curl's
# timeout exit — the assertion is that an SSE stats event arrived.
(curl -fsS -m 3 -N "http://$ADDR/v2/stats/stream?interval=100" 2>/dev/null || true) \
  | head -3 | grep '^event: stats' >/dev/null

echo "serve-smoke: graceful shutdown"
kill -TERM "$PID"
# wait returns wcetd's exit status: 0 only if it drained and exited
# cleanly on SIGTERM rather than being killed by it.
wait "$PID"

# --- Phase 2: campaign jobs survive SIGKILL ------------------------------
# A fresh daemon with persistent dirs. -workers 2 leaves exactly one
# background slot, so the 24-cell job takes long enough to be killed
# mid-flight deterministically.
DATA="$WORK/data"

wait_health() {
  for _ in $(seq 1 100); do
    if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then
      return 0
    fi
    if ! kill -0 "$1" 2>/dev/null; then
      echo "serve-smoke: wcetd died during startup" >&2
      exit 1
    fi
    sleep 0.1
  done
  curl -fsS "http://$ADDR/healthz" >/dev/null
}

job_status() {
  curl -fsS "http://$ADDR/v2/campaigns/$JOB_ID"
}

echo "serve-smoke: campaign submit"
"$BIN" -addr "$ADDR" -data "$DATA" -workers 2 &
PID=$!
wait_health "$PID"

# 2 scenarios x 3 levels x 4 perturbations x 1 model = 24 cells. The
# perturbations and iteration count are mirrored exactly by the offline
# cmd/experiments invocation below, which must produce the same bytes.
submitted=$(curl -fsS -X POST "http://$ADDR/v2/campaigns" -d '{
  "grid": {
    "models": ["ftc"],
    "appIterations": 600,
    "perturbations": [
      {},
      {"name": "up10",   "scalePercent": 110},
      {"name": "up20",   "scalePercent": 120},
      {"name": "down10", "scalePercent": 90}
    ]
  }
}')
echo "$submitted" | grep -q '"totalCells": 24'
JOB_ID=$(echo "$submitted" | grep -o '"id": "[^"]*"' | head -1 | cut -d'"' -f4)
if [ -z "$JOB_ID" ]; then
  echo "serve-smoke: campaign submit returned no job id:" >&2
  echo "$submitted" >&2
  exit 1
fi

# Stream progress concurrently; the capture ends when the daemon is
# killed, and must contain at least one per-cell SSE event by then.
STREAM="$WORK/stream.txt"
(curl -fsS -m 60 -N "http://$ADDR/v2/campaigns/$JOB_ID/stream" >"$STREAM" 2>/dev/null || true) &
STREAM_PID=$!

echo "serve-smoke: campaign kill -9 mid-job"
killed_status=""
for _ in $(seq 1 600); do
  killed_status=$(job_status)
  done_cells=$(echo "$killed_status" | grep -o '"doneCells": [0-9]*' | grep -o '[0-9]*' || true)
  if [ "${done_cells:-0}" -ge 1 ]; then
    break
  fi
  sleep 0.05
done
if [ "${done_cells:-0}" -lt 1 ]; then
  echo "serve-smoke: campaign made no progress before kill:" >&2
  echo "$killed_status" >&2
  exit 1
fi
# The job must still be running when the daemon dies — that is what makes
# the restart below a genuine checkpoint resume, not a reload of a done job.
echo "$killed_status" | grep -q '"state": "running"'
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
wait "$STREAM_PID" 2>/dev/null || true
grep -q '^event: cell' "$STREAM"

echo "serve-smoke: campaign resume after restart"
"$BIN" -addr "$ADDR" -data "$DATA" -workers 2 &
PID=$!
wait_health "$PID"

# The restarted daemon must have picked the job up from its checkpoint...
metrics=$(curl -fsS "http://$ADDR/metrics")
resumed=$(echo "$metrics" | grep '^jobs_resumed_total ' | awk '{print $2}' || true)
if [ -z "$resumed" ] || [ "$resumed" -lt 1 ]; then
  echo "serve-smoke: jobs_resumed_total = '$resumed', want >= 1 after restart" >&2
  exit 1
fi
restored=$(echo "$metrics" | grep '^jobs_cells_restored_total ' | awk '{print $2}' || true)
if [ -z "$restored" ] || [ "$restored" -lt 1 ]; then
  echo "serve-smoke: jobs_cells_restored_total = '$restored', want >= 1 (checkpointed cells must not re-solve)" >&2
  exit 1
fi

# ...and drive it to completion.
final=""
for _ in $(seq 1 1200); do
  final=$(job_status)
  if echo "$final" | grep -q '"state": "done"'; then
    break
  fi
  if echo "$final" | grep -Eq '"state": "(failed|canceled)"'; then
    echo "serve-smoke: resumed campaign ended badly:" >&2
    echo "$final" >&2
    exit 1
  fi
  sleep 0.1
done
echo "$final" | grep -q '"state": "done"'
echo "$final" | grep -q '"doneCells": 24'

echo "serve-smoke: campaign stream replay across restart"
# A full replay (everything after event 0) must deliver all 24 cell
# events plus the terminal state event, then end the stream on its own.
replay="$WORK/replay.txt"
curl -fsS -m 30 -N "http://$ADDR/v2/campaigns/$JOB_ID/stream?lastEventId=0" >"$replay"
cells=$(grep -c '^event: cell' "$replay" || true)
if [ "$cells" -ne 24 ]; then
  echo "serve-smoke: stream replay carried $cells cell events, want 24" >&2
  exit 1
fi
grep -q '^event: state' "$replay"
grep -q '"state":"done"' "$replay"
# A mid-stream resume of the finished job, compared after the restart
# below.
curl -fsS -m 30 -N "http://$ADDR/v2/campaigns/$JOB_ID/stream?lastEventId=12" >"$WORK/replay-12.txt"

echo "serve-smoke: campaign artifact byte-identical to offline sweep"
curl -fsS "http://$ADDR/v2/campaigns/$JOB_ID/artifact" >"$WORK/artifact.json"
go run ./cmd/experiments -only sweep -models ftc -app-iterations 600 \
  -perturb up10:+10,up20:+20,down10:-10 -json "$WORK/reference.json" >/dev/null
if ! cmp -s "$WORK/artifact.json" "$WORK/reference.json"; then
  echo "serve-smoke: resumed campaign artifact differs from the offline sweep" >&2
  diff "$WORK/artifact.json" "$WORK/reference.json" | head -20 >&2 || true
  exit 1
fi

echo "serve-smoke: campaign daemon graceful shutdown"
kill -TERM "$PID"
wait "$PID"

# --- Phase 3: observability — history, traces, kill -9 ------------------
# A daemon over the same persistent -data dir with a fast sampling cadence.
echo "serve-smoke: observability daemon"
"$BIN" -addr "$ADDR" -data "$DATA" -history-interval 200ms &
PID=$!
wait_health "$PID"

echo "serve-smoke: finished campaign stream byte-identical across a clean restart"
# The restarted daemon rebuilds the done job from its checkpoint; its
# stream, from the start and mid-stream, must be the bytes served before.
for after in 0 12; do
  curl -fsS -m 30 -N "http://$ADDR/v2/campaigns/$JOB_ID/stream?lastEventId=$after" >"$WORK/restarted-$after.txt"
done
if ! cmp -s "$replay" "$WORK/restarted-0.txt" || ! cmp -s "$WORK/replay-12.txt" "$WORK/restarted-12.txt"; then
  echo "serve-smoke: finished campaign stream changed across a clean restart" >&2
  diff "$replay" "$WORK/restarted-0.txt" | head -20 >&2 || true
  exit 1
fi

echo "serve-smoke: traced request stored and retrievable by id"
curl -fsS -D "$WORK/obs_headers" -X POST "http://$ADDR/v1/wcet" \
  -H 'X-Wcet-Trace: 1' -d "$SINGLE" >/dev/null
TRACE_ID=$(grep -i '^X-Wcet-Trace-Id:' "$WORK/obs_headers" | tr -d '\r' | awk '{print $2}')
if [ -z "$TRACE_ID" ]; then
  echo "serve-smoke: traced response missing X-Wcet-Trace-Id header" >&2
  exit 1
fi
stored=$(curl -fsS "http://$ADDR/v2/traces/$TRACE_ID")
echo "$stored" | grep -q '"sampled": "header"'
echo "$stored" | grep -q '"endpoint": "v1_wcet"'
# ...and the search endpoint lists it.
curl -fsS "http://$ADDR/v2/traces?endpoint=v1_wcet" | grep "\"id\": \"$TRACE_ID\"" >/dev/null

echo "serve-smoke: metrics history fills"
points=0
for _ in $(seq 1 100); do
  hist=$(curl -fsS "http://$ADDR/v2/metrics/history?series=wcetd_requests_total*")
  points=$(echo "$hist" | grep -c '"t":' || true)
  if [ "$points" -ge 2 ]; then
    break
  fi
  sleep 0.1
done
if [ "$points" -lt 2 ]; then
  echo "serve-smoke: /v2/metrics/history stayed empty ($points points):" >&2
  echo "$hist" >&2
  exit 1
fi
# The history listing names the request counter family.
curl -fsS "http://$ADDR/v2/metrics/history" | grep '"wcetd_requests_total' >/dev/null

echo "serve-smoke: retired SLO surface is gone"
status=$(curl -sS -o /dev/null -w '%{http_code}' "http://$ADDR/v2/alerts")
if [ "$status" != 404 ]; then
  echo "serve-smoke: GET /v2/alerts returned $status, want 404" >&2
  exit 1
fi
if "$BIN" -slo-config x 2>"$WORK/slo_flag.txt"; then
  echo "serve-smoke: wcetd accepted the retired -slo-config flag" >&2
  exit 1
fi
if ! grep -q 'flag provided but not defined' "$WORK/slo_flag.txt"; then
  echo "serve-smoke: -slo-config did not fail at flag parsing:" >&2
  cat "$WORK/slo_flag.txt" >&2
  exit 1
fi

echo "serve-smoke: observability kill -9 + restart preserves history and traces"
kill -9 "$PID"
wait "$PID" 2>/dev/null || true
# The restart samples only once an hour, so everything it serves below
# was replayed from the checksummed on-disk segments, not re-collected.
"$BIN" -addr "$ADDR" -data "$DATA" -history-interval 1h &
PID=$!
wait_health "$PID"
hist2=$(curl -fsS "http://$ADDR/v2/metrics/history?series=wcetd_requests_total*")
points2=$(echo "$hist2" | grep -c '"t":' || true)
if [ "$points2" -lt 2 ]; then
  echo "serve-smoke: restarted daemon replayed only $points2 history points:" >&2
  echo "$hist2" >&2
  exit 1
fi
restored_trace=$(curl -fsS "http://$ADDR/v2/traces/$TRACE_ID")
echo "$restored_trace" | grep -q '"sampled": "header"'

echo "serve-smoke: observability daemon graceful shutdown"
kill -TERM "$PID"
wait "$PID"

echo "serve-smoke: OK"

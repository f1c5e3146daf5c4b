package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"repro/internal/telemetry"
)

// This file is the daemon's observability surface: the per-server metric
// set behind GET /metrics and /v1/stats, the per-endpoint instrumentation
// middleware (request counting, latency histograms, slow-request logging),
// the X-Wcet-Trace request-tracing contract, and the SSE stats stream the
// dashboard consumes.
//
//	GET /metrics          Prometheus text exposition (server + process metrics)
//	GET /v2/stats/stream  SSE: periodic JSON snapshots ({stats, metrics})
//	GET /v2/dashboard     embedded single-file live dashboard
//
// Tracing contract: POST an analysis request with the header
// `X-Wcet-Trace: 1` and the response becomes {"response": <the usual
// payload>, "trace": <span tree>} with the trace ID echoed in
// X-Wcet-Trace-Id. Without the header the payload is byte-identical to
// an untraced server — the /v1 golden fixtures pin that.

// TraceHeader is the request header that asks for an inline span tree;
// TraceIDHeader carries the trace's ID on the response.
const (
	TraceHeader   = "X-Wcet-Trace"
	TraceIDHeader = "X-Wcet-Trace-Id"
)

// serverMetrics is one Server's metric set, registered on a per-server
// registry so concurrently constructed servers (tests) never collide;
// GET /metrics serves this registry followed by the process-wide
// telemetry.Default() one (solver, analyzer, campaign, tabstore, calib).
type serverMetrics struct {
	reg *telemetry.Registry

	requests *telemetry.CounterVec   // wcetd_requests_total{endpoint}
	latency  *telemetry.HistogramVec // wcetd_request_seconds{endpoint}

	accepted   *telemetry.Counter // wcetd_accepted_total
	rejected   *telemetry.Counter // wcetd_rejected_overload_total
	canceled   *telemetry.Counter // wcetd_canceled_total
	batchItems *telemetry.Counter // wcetd_batch_items_total

	cacheHits       *telemetry.Counter    // wcetd_cache_hits_total
	cacheMisses     *telemetry.Counter    // wcetd_cache_misses_total
	cacheEvictions  *telemetry.Counter    // wcetd_cache_evictions_total
	cacheContention *telemetry.CounterVec // wcetd_cache_shard_contention_total{shard}
	dedup           *telemetry.Counter    // wcetd_dedup_total

	promotes      *telemetry.Counter // wcetd_table_promotes_total
	traces        *telemetry.Counter // wcetd_traces_total
	slow          *telemetry.Counter // wcetd_slow_requests_total
	streamClients *telemetry.Gauge   // wcetd_stream_clients

	campaignStreams *telemetry.Gauge // wcetd_campaign_stream_clients
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	return &serverMetrics{
		reg: reg,
		requests: reg.CounterVec("wcetd_requests_total",
			"HTTP requests received, by endpoint.", "endpoint"),
		latency: reg.HistogramVec("wcetd_request_seconds",
			"End-to-end request latency, by endpoint.", "endpoint", nil),
		accepted: reg.Counter("wcetd_accepted_total",
			"Requests admitted past admission control."),
		rejected: reg.Counter("wcetd_rejected_overload_total",
			"Requests rejected 429 because the queue was full."),
		canceled: reg.Counter("wcetd_canceled_total",
			"Requests abandoned by deadline or client cancellation."),
		batchItems: reg.Counter("wcetd_batch_items_total",
			"Individual cells received inside /v1/batch requests."),
		cacheHits: reg.Counter("wcetd_cache_hits_total",
			"Result-cache hits."),
		cacheMisses: reg.Counter("wcetd_cache_misses_total",
			"Result-cache misses (each one schedules an evaluation)."),
		cacheEvictions: reg.Counter("wcetd_cache_evictions_total",
			"Result-cache evictions (CLOCK second-chance sweep)."),
		cacheContention: reg.CounterVec("wcetd_cache_shard_contention_total",
			"Result-cache lock acquisitions that had to wait, by shard.", "shard"),
		dedup: reg.Counter("wcetd_dedup_total",
			"Requests that joined an identical in-flight evaluation (singleflight)."),
		promotes: reg.Counter("wcetd_table_promotes_total",
			"Serving-table promotions (hot swaps)."),
		traces: reg.Counter("wcetd_traces_total",
			"Requests that asked for and received an inline trace."),
		slow: reg.Counter("wcetd_slow_requests_total",
			"Requests slower than the configured slow-request threshold."),
		streamClients: reg.Gauge("wcetd_stream_clients",
			"Currently connected /v2/stats/stream clients."),
		campaignStreams: reg.Gauge("wcetd_campaign_stream_clients",
			"Currently connected /v2/campaigns/{id}/stream clients."),
	}
}

// instrument wraps one endpoint handler with request counting, latency
// observation, tracing and slow-request logging. traceable marks the
// analysis endpoints: they always run under a trace (so a slow request
// can be logged with its span tree) and return it inline when the client
// sends `X-Wcet-Trace: 1`; cheap read-only endpoints skip trace setup
// entirely.
func (s *Server) instrument(endpoint string, traceable bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.requests.With(endpoint).Inc()
		start := time.Now()

		var tr *telemetry.Trace
		var finished *telemetry.TraceJSON
		if traceable {
			ctx, t := telemetry.NewTrace(r.Context(), endpoint)
			tr = t
			r = r.WithContext(ctx)
		}
		headerRequested := tr != nil && r.Header.Get(TraceHeader) == "1"
		status := 0
		if headerRequested {
			rec := &traceRecorder{header: make(http.Header)}
			h(rec, r)
			finished = tr.Finish()
			status = rec.status
			s.metrics.traces.Inc()
			writeTraced(w, rec, tr.ID, finished)
		} else if tr != nil {
			// Tail-sampling needs the status even when the client did not
			// ask for the trace; the recorder passes bytes through
			// unbuffered, so untraced responses stay byte-identical.
			rec := &statusRecorder{ResponseWriter: w}
			h(rec, r)
			finished = tr.Finish()
			status = rec.status
		} else {
			h(w, r)
		}

		elapsed := time.Since(start)
		if finished != nil {
			s.maybeStoreTrace(endpoint, finished, status, elapsed, headerRequested)
		}
		s.metrics.latency.With(endpoint).Observe(elapsed)
		if s.cfg.SlowRequestThreshold > 0 && elapsed >= s.cfg.SlowRequestThreshold &&
			endpoint != "v2_stats_stream" && endpoint != "v2_campaign_stream" {
			s.metrics.slow.Inc()
			// Attr construction (and the span-tree marshal in particular)
			// dwarfs the request itself when the threshold is set low, so
			// skip it entirely when nothing would be emitted.
			if s.logger.Enabled(r.Context(), slog.LevelWarn) {
				attrs := []any{
					slog.String("endpoint", endpoint),
					slog.Duration("elapsed", elapsed),
				}
				if finished != nil {
					attrs = append(attrs, slog.String("traceId", finished.ID))
					if spans, err := json.Marshal(finished.Root); err == nil {
						attrs = append(attrs, slog.String("spans", string(spans)))
					}
				}
				s.logger.Warn("slow request", attrs...)
			}
		}
	}
}

// statusRecorder captures the response status without buffering; the
// tail-sampling path needs to know whether a request failed server-side
// while leaving the bytes on the wire untouched.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// traceRecorder buffers a traced request's response so the envelope can
// wrap it. Analysis responses are small JSON documents, so buffering one
// costs less than the solve that produced it.
type traceRecorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *traceRecorder) Header() http.Header { return r.header }

func (r *traceRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *traceRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// writeTraced replays a recorded response wrapped in the trace envelope,
// preserving the recorded status code. The envelope is assembled by
// splicing, not re-marshalling: the recorded bytes appear verbatim under
// "response", so a traced response body is exactly the untraced one.
func writeTraced(w http.ResponseWriter, rec *traceRecorder, id string, trace *telemetry.TraceJSON) {
	body := bytes.TrimSpace(rec.buf.Bytes())
	if len(body) == 0 || !json.Valid(body) {
		// Every endpoint emits JSON; guard anyway so a malformed body
		// cannot produce an invalid envelope.
		raw, _ := json.Marshal(string(body))
		body = raw
	}
	tj, err := json.Marshal(trace)
	if err != nil {
		tj = []byte("null")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceIDHeader, id)
	if rec.status != 0 && rec.status != http.StatusOK {
		w.WriteHeader(rec.status)
	}
	fmt.Fprintf(w, "{\"response\":%s,\"trace\":%s}\n", body, tj)
}

// handleMetrics serves the Prometheus exposition: this server's metrics
// followed by the process-wide ones.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	telemetry.Handler(s.metrics.reg, telemetry.Default()).ServeHTTP(w, r)
}

// streamSnapshot is one SSE event's payload.
type streamSnapshot struct {
	// UnixMs is the snapshot's timestamp (milliseconds since epoch).
	UnixMs int64 `json:"unixMs"`
	// Stats is the /v1/stats payload.
	Stats Stats `json:"stats"`
	// Metrics flattens both registries (see telemetry.Registry.Snapshot).
	Metrics map[string]float64 `json:"metrics"`
}

// metricsSnapshot flattens this server's registry and the process-wide
// one into one map (see telemetry.Registry.Snapshot): the one view the
// history sampler records and the SSE stream sends.
func (s *Server) metricsSnapshot() map[string]float64 {
	merged := s.metrics.reg.Snapshot()
	for k, v := range telemetry.Default().Snapshot() {
		merged[k] = v
	}
	return merged
}

func (s *Server) snapshotStream() streamSnapshot {
	return streamSnapshot{
		UnixMs:  time.Now().UnixMilli(),
		Stats:   s.StatsSnapshot(),
		Metrics: s.metricsSnapshot(),
	}
}

// Stream cadence bounds: the floor keeps a client from turning the
// snapshot path into a busy loop, the ceiling keeps a typo'd interval
// (3600000) from producing a stream that looks dead for an hour.
const (
	streamIntervalFloor = 100 * time.Millisecond
	streamIntervalCeil  = 60 * time.Second
)

// parseStreamInterval validates the ?interval query parameter
// (milliseconds): empty selects a second; non-numeric or non-positive
// values are rejected; the result is clamped to [floor, ceiling].
func parseStreamInterval(q string) (time.Duration, error) {
	if q == "" {
		return time.Second, nil
	}
	ms, err := strconv.Atoi(q)
	if err != nil || ms <= 0 {
		return 0, fmt.Errorf("interval must be a positive millisecond count, got %q", q)
	}
	d := time.Duration(ms) * time.Millisecond
	if d < streamIntervalFloor {
		d = streamIntervalFloor
	}
	if d > streamIntervalCeil {
		d = streamIntervalCeil
	}
	return d, nil
}

// sseWriter writes Server-Sent Events frames for the stats and campaign
// streams. Each write — one frame, or a replay of them — is flushed once.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
}

// newSSEWriter wraps w, or answers 500 and reports false when the
// connection cannot stream.
func newSSEWriter(w http.ResponseWriter) (sseWriter, bool) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported by this connection"))
	}
	return sseWriter{w, fl}, ok
}

// open sets the event-stream headers; they go out with the first write,
// even an empty one.
func (s sseWriter) open() {
	s.w.Header().Set("Content-Type", "text/event-stream")
	s.w.Header().Set("Cache-Control", "no-store")
	s.w.WriteHeader(http.StatusOK)
}

// send writes one frame with v as JSON data and no ID.
func (s sseWriter) send(event string, v any) bool {
	payload, err := json.Marshal(v)
	if err != nil {
		return false
	}
	return s.write(appendFrame(nil, 0, event, payload))
}

// write writes frames, already encoded, and flushes them in one go. It
// reports false once they cannot be written.
func (s sseWriter) write(frames []byte) bool {
	if _, err := s.w.Write(frames); err != nil {
		return false
	}
	s.fl.Flush()
	return true
}

// appendFrame appends one SSE frame: an `id:` line when id is positive,
// the event name and data.
func appendFrame(b []byte, id int, event string, data []byte) []byte {
	b = appendFrameHead(b, id, event)
	b = append(b, data...)
	return append(b, frameTail...)
}

// appendFrameHead appends an SSE frame up to its data; the data and
// frameTail complete it.
func appendFrameHead(b []byte, id int, event string) []byte {
	if id > 0 {
		b = append(b, "id: "...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, '\n')
	}
	b = append(b, "event: "...)
	b = append(b, event...)
	return append(b, "\ndata: "...)
}

// frameTail ends an SSE frame.
const frameTail = "\n\n"

// handleStatsStream serves /v2/stats/stream: an SSE stream of periodic
// `event: stats` telemetry snapshots. `interval` (milliseconds, default
// 1000, clamped to [100ms, 60s]) tunes the snapshot cadence. The stream
// ends when the client disconnects or the server begins graceful
// shutdown — open streams must not hold Shutdown hostage.
func (s *Server) handleStatsStream(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	sse, ok := newSSEWriter(w)
	if !ok {
		return
	}
	interval, err := parseStreamInterval(r.URL.Query().Get("interval"))
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	sse.open()

	s.metrics.streamClients.Add(1)
	defer s.metrics.streamClients.Add(-1)

	if !sse.send("stats", s.snapshotStream()) {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.streamDone:
			return
		case <-tick.C:
			if !sse.send("stats", s.snapshotStream()) {
				return
			}
		}
	}
}

// LogSummary emits the shutdown stats line: one structured record with
// the counters an operator wants in the log tail after a drain.
// cmd/wcetd calls it once the graceful Shutdown completes.
func (s *Server) LogSummary() {
	st := s.StatsSnapshot()
	s.logger.Info("final stats",
		slog.Int64("accepted", st.Accepted),
		slog.Int64("rejectedOverload", st.RejectedOverload),
		slog.Int64("canceled", st.Canceled),
		slog.Int64("singleRequests", st.SingleRequests),
		slog.Int64("batchRequests", st.BatchRequests),
		slog.Int64("batchItems", st.BatchItems),
		slog.Int64("v2Requests", st.V2Requests),
		slog.Int64("cacheHits", st.Cache.Hits),
		slog.Int64("cacheMisses", st.Cache.Misses),
		slog.Int64("dedup", st.Cache.Dedup),
		slog.String("servingTable", st.ServingTable),
	)
}

package service

import (
	"fmt"
	"net/http"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

// This file wires the obs persistence layer into the server: the
// metrics-history sampler and its query endpoint, and the stored-trace
// search endpoints.
//
//	GET /v2/metrics/history?series=&from=&to=&step=  retained history of one series
//	GET /v2/metrics/history                          the retained series names
//	GET /v2/traces?endpoint=&min_ms=&since=&limit=   stored trace search
//	GET /v2/traces/{id}                              one stored trace's span tree

// buildInfoLabels extracts the build-identity labels once: module
// version, Go toolchain, and VCS revision when the binary was built from
// a checkout. Absent fields render as "unknown" so the label set is
// stable across build modes.
func buildInfoLabels() map[string]string {
	labels := map[string]string{
		"version":  "unknown",
		"go":       "unknown",
		"revision": "unknown",
	}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return labels
	}
	if bi.Main.Version != "" {
		labels["version"] = bi.Main.Version
	}
	if bi.GoVersion != "" {
		labels["go"] = bi.GoVersion
	}
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" && kv.Value != "" {
			rev := kv.Value
			if len(rev) > 12 {
				rev = rev[:12]
			}
			labels["revision"] = rev
		}
	}
	return labels
}

// openObservability builds the history store and trace store from the
// config. Called from New; panics on unusable state, matching the
// constructor's idiom for the other subsystems.
func (s *Server) openObservability() {
	metricsDir, tracesDir := "", ""
	if s.cfg.ObsDir != "" {
		metricsDir = filepath.Join(s.cfg.ObsDir, "metrics")
		tracesDir = filepath.Join(s.cfg.ObsDir, "traces")
	}
	db, err := obs.OpenTSDB(metricsDir, nil)
	if err != nil {
		panic(fmt.Sprintf("service: opening metrics history: %v", err))
	}
	s.history = db
	ts, err := obs.OpenTraceStore(tracesDir, s.cfg.TraceStoreEntries)
	if err != nil {
		panic(fmt.Sprintf("service: opening trace store: %v", err))
	}
	s.traceStore = ts
	if db.Dropped+ts.Dropped > 0 {
		s.logger.Warn("observability store recovered with torn tail",
			"droppedMetricsLines", db.Dropped, "droppedTraceLines", ts.Dropped)
	}

	s.samplerWG.Add(1)
	go s.sampleLoop()
}

// closeObservability stops the sampler and syncs the stores.
func (s *Server) closeObservability() {
	s.samplerOnce.Do(func() { close(s.samplerDone) })
	s.samplerWG.Wait()
	s.history.Close()
	s.traceStore.Close()
}

// sampleLoop appends one merged registry snapshot per HistoryInterval.
func (s *Server) sampleLoop() {
	defer s.samplerWG.Done()
	tick := time.NewTicker(s.cfg.HistoryInterval)
	defer tick.Stop()
	for {
		select {
		case <-s.samplerDone:
			return
		case <-tick.C:
			if err := s.history.Append(time.Now().UnixMilli(), s.metricsSnapshot()); err != nil {
				s.logger.Warn("metrics history append failed", "err", err)
			}
		}
	}
}

// slowTraceBudgetPerSec caps how many tail-sampled slow traces are
// stored per second. Client-requested and error traces always store;
// the cap only applies to "slow" — when the whole fleet of requests
// crosses the threshold at once (a saturated server, or an operator who
// set -slow-request very low), storing a representative few per second
// keeps the diagnostic value without putting a marshal+disk append on
// every request's critical path.
const slowTraceBudgetPerSec = 32

// allowSlowTrace spends one unit of the per-second slow-trace budget.
// Lock-free and deliberately approximate: concurrent second rollovers
// may reset the counter more than once and admit a few extra traces,
// which is harmless — the budget is a throttle, not an invariant.
func (s *Server) allowSlowTrace(sec int64) bool {
	if s.slowTraceSec.Load() != sec {
		s.slowTraceSec.Store(sec)
		s.slowTraceN.Store(0)
	}
	return s.slowTraceN.Add(1) <= slowTraceBudgetPerSec
}

// maybeStoreTrace applies the tail-sampling policy to one finished
// request: keep the trace when the client asked for it, when the request
// was slow, or when it failed server-side — so the trace of an incident
// exists even though nobody sent the header.
func (s *Server) maybeStoreTrace(endpoint string, finished *telemetry.TraceJSON, status int, elapsed time.Duration, headerRequested bool) {
	if finished == nil {
		return
	}
	sampled := ""
	switch {
	case headerRequested:
		sampled = "header"
	case status >= 500:
		sampled = "error"
	case s.cfg.SlowRequestThreshold > 0 && elapsed >= s.cfg.SlowRequestThreshold:
		if !s.allowSlowTrace(time.Now().Unix()) {
			return
		}
		sampled = "slow"
	default:
		return
	}
	if status == 0 {
		status = http.StatusOK
	}
	err := s.traceStore.Put(&obs.StoredTrace{
		ID:         finished.ID,
		Endpoint:   endpoint,
		Status:     status,
		DurationMs: float64(finished.DurationUs) / 1000,
		UnixMs:     time.Now().UnixMilli(),
		Sampled:    sampled,
		Trace:      finished,
	})
	if err != nil {
		s.logger.Warn("trace store append failed", "err", err)
	}
}

// historyResponse is the GET /v2/metrics/history payload.
type historyResponse struct {
	Series string      `json:"series"`
	Points []obs.Point `json:"points"`
}

// handleMetricsHistory serves retained metrics history. With a `series`
// parameter (exact name, or prefix with a trailing '*' summed across
// matches) it returns that series' points over [from, to] (unix ms,
// optional) reduced to `step` (ms, optional); without one it lists the
// retained series names.
func (s *Server) handleMetricsHistory(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	q := r.URL.Query()
	series := q.Get("series")
	if series == "" {
		writeJSON(w, http.StatusOK, map[string][]string{"series": s.history.Series()})
		return
	}
	var from, to, step int64
	for _, p := range []struct {
		name string
		dst  *int64
	}{{"from", &from}, {"to", &to}, {"step", &step}} {
		raw := q.Get(p.name)
		if raw == "" {
			continue
		}
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("%s must be a non-negative millisecond count, got %q", p.name, raw))
			return
		}
		*p.dst = v
	}
	writeJSON(w, http.StatusOK, historyResponse{
		Series: series,
		Points: s.history.Query(series, from, to, step),
	})
}

// tracesResponse is the GET /v2/traces payload.
type tracesResponse struct {
	Traces []obs.TraceSummary `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	q := r.URL.Query()
	var minMs float64
	if raw := q.Get("min_ms"); raw != "" {
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("min_ms must be a non-negative number, got %q", raw))
			return
		}
		minMs = v
	}
	var since int64
	if raw := q.Get("since"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("since must be a non-negative unix millisecond count, got %q", raw))
			return
		}
		since = v
	}
	limit := 0
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			httpError(w, http.StatusBadRequest, fmt.Errorf("limit must be a positive count, got %q", raw))
			return
		}
		limit = v
	}
	sums := s.traceStore.Query(q.Get("endpoint"), minMs, since, limit)
	if sums == nil {
		sums = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, tracesResponse{Traces: sums})
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v2/traces/")
	if id == "" || strings.Contains(id, "/") {
		httpError(w, http.StatusNotFound, fmt.Errorf("trace id required"))
		return
	}
	st := s.traceStore.Get(id)
	if st == nil {
		httpError(w, http.StatusNotFound, fmt.Errorf("no stored trace %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

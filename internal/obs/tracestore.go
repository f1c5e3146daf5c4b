package obs

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"

	"repro/internal/store"
	"repro/internal/telemetry"
)

// StoredTrace is one finished request trace at rest: the wire-form span
// tree plus the request metadata the search index filters on.
type StoredTrace struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	Status   int    `json:"status"`
	// DurationMs duplicates the root span's duration in the unit the
	// search API filters on.
	DurationMs float64 `json:"durationMs"`
	// UnixMs is the request's completion time.
	UnixMs int64 `json:"unixMs"`
	// Sampled says why the trace was kept: "header" (client asked),
	// "slow" (tail-sampled on latency) or "error" (status >= 500).
	Sampled string               `json:"sampled"`
	Trace   *telemetry.TraceJSON `json:"trace"`
}

// TraceSummary is the search-result form: everything but the span tree.
type TraceSummary struct {
	ID         string  `json:"id"`
	Endpoint   string  `json:"endpoint"`
	Status     int     `json:"status"`
	DurationMs float64 `json:"durationMs"`
	UnixMs     int64   `json:"unixMs"`
	Sampled    string  `json:"sampled"`
}

// TraceStore is a bounded ring of stored traces with an in-memory index,
// persisted through a checksummed segment log so stored traces survive
// kill -9. Safe for concurrent use. An empty dir is memory-only.
type TraceStore struct {
	mu  sync.RWMutex
	log *store.Ring
	// ring holds the most recent maxEntries traces, oldest first.
	ring       []*StoredTrace
	byID       map[string]*StoredTrace
	maxEntries int
	// Dropped counts unverifiable lines discarded at startup.
	Dropped int
}

// OpenTraceStore opens (or creates) the store under dir, retaining at
// most maxEntries traces (minimum 16).
func OpenTraceStore(dir string, maxEntries int) (*TraceStore, error) {
	if maxEntries < 16 {
		maxEntries = 16
	}
	ts := &TraceStore{maxEntries: maxEntries, byID: make(map[string]*StoredTrace)}
	if dir == "" {
		return ts, nil
	}
	maxLines := maxEntries / 8
	if maxLines < 32 {
		maxLines = 32
	}
	log, recs, dropped, err := store.OpenRing(dir, "trace", maxLines, maxEntries/maxLines+2)
	if err != nil {
		return nil, err
	}
	ts.log = log
	ts.Dropped = dropped
	for _, rec := range recs {
		var st StoredTrace
		if json.Unmarshal(rec.D, &st) != nil || st.ID == "" || st.Trace == nil {
			ts.Dropped++
			continue
		}
		ts.insert(&st)
	}
	return ts, nil
}

// insert adds one trace to the ring and index, evicting the oldest past
// capacity. Caller holds the lock (or is still single-threaded in Open).
func (ts *TraceStore) insert(st *StoredTrace) {
	ts.ring = append(ts.ring, st)
	ts.byID[st.ID] = st
	if over := len(ts.ring) - ts.maxEntries; over > 0 {
		for _, old := range ts.ring[:over] {
			// Only unindex if the ID still maps to the evicted entry (a
			// replayed duplicate ID must not orphan the live one).
			if ts.byID[old.ID] == old {
				delete(ts.byID, old.ID)
			}
		}
		ts.ring = append(ts.ring[:0:0], ts.ring[over:]...)
	}
}

// Put stores one finished trace. The on-disk ring reclaims old segments
// on rotation; the in-memory ring evicts immediately.
func (ts *TraceStore) Put(st *StoredTrace) error {
	if st == nil || st.ID == "" || st.Trace == nil {
		return nil
	}
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.insert(st)
	return ts.log.Append(st.UnixMs, data)
}

// Get returns a stored trace by ID, or nil.
func (ts *TraceStore) Get(id string) *StoredTrace {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.byID[id]
}

// Len returns the number of retained traces.
func (ts *TraceStore) Len() int {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return len(ts.ring)
}

// Query returns summaries of retained traces matching the filters,
// newest first, capped at limit (<=0 means 100). endpoint "" matches
// all; minMs <= 0 matches all durations; since <= 0 matches all times.
func (ts *TraceStore) Query(endpoint string, minMs float64, since int64, limit int) []TraceSummary {
	if limit <= 0 {
		limit = 100
	}
	ts.mu.RLock()
	var out []TraceSummary
	for i := len(ts.ring) - 1; i >= 0 && len(out) < limit; i-- {
		st := ts.ring[i]
		if endpoint != "" && !strings.EqualFold(st.Endpoint, endpoint) {
			continue
		}
		if minMs > 0 && st.DurationMs < minMs {
			continue
		}
		if since > 0 && st.UnixMs < since {
			continue
		}
		out = append(out, TraceSummary{
			ID: st.ID, Endpoint: st.Endpoint, Status: st.Status,
			DurationMs: st.DurationMs, UnixMs: st.UnixMs, Sampled: st.Sampled,
		})
	}
	ts.mu.RUnlock()
	// The ring is append-ordered; a replayed store already is too, but
	// sort defensively so the API contract (newest first) always holds.
	sort.SliceStable(out, func(i, j int) bool { return out[i].UnixMs > out[j].UnixMs })
	return out
}

// Close syncs and closes the segment log.
func (ts *TraceStore) Close() {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.log.Close()
}

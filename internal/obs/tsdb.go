// Package obs is wcetd's forensic layer: it gives the live telemetry in
// internal/telemetry a memory. Two pieces:
//
//   - TSDB: an on-disk metrics time-series store. Every sampling tick the
//     server appends its full registry snapshot; tiered downsampling
//     (raw → 10s → 1m) and bounded retention keep both disk and memory
//     flat while holding three days of history for /v2/metrics/history.
//   - TraceStore: a bounded on-disk ring of finished request traces
//     (client-requested, slow and error requests via tail-sampling),
//     searchable by endpoint/duration/time and retrievable by ID.
//
// The TSDB tiers and the trace store persist through internal/store's
// checksummed segment ring, the same line log that holds campaign-job
// checkpoints, so everything survives kill -9: segments are read back on
// startup and cut to their last verifiable line. This package only
// decodes the payloads.
package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/store"
)

// TierSpec sizes one resolution tier of the metrics store.
type TierSpec struct {
	// Name is the tier's directory name ("raw", "10s", "1m").
	Name string
	// Step is the minimum spacing between retained samples; 0 retains
	// every appended sample (the raw tier).
	Step time.Duration
	// Retain caps the samples held (in memory and, via segment
	// reclamation, approximately on disk).
	Retain int
}

// DefaultTiers is the raw → 10s → 1m downsampling ladder. Retention is
// chosen so /v2/metrics/history reaches three days back at a resolution
// that coarsens with age: raw covers the last hour at a 5s sampling
// cadence, the 10s tier six hours, and the 1m tier three days.
func DefaultTiers() []TierSpec {
	return []TierSpec{
		{Name: "raw", Step: 0, Retain: 720},
		{Name: "10s", Step: 10 * time.Second, Retain: 2160},
		{Name: "1m", Step: time.Minute, Retain: 4320},
	}
}

// tier is one resolution level: a columnar in-memory window (shared
// timestamp slice, one float column per series, NaN marking absence)
// backed by a segment log. Columnar storage keeps three days of
// ~250-series history in tens of megabytes instead of the hundreds a
// map-per-sample layout would cost.
type tier struct {
	spec  TierSpec
	log   *store.Ring
	times []int64              // unix milliseconds, ascending
	cols  map[string][]float64 // len(col) == len(times); NaN = absent
	lastT int64
}

// wants reports whether a sample at t belongs in this tier.
func (tr *tier) wants(t int64) bool {
	return tr.spec.Step == 0 || len(tr.times) == 0 || t-tr.lastT >= tr.spec.Step.Milliseconds()
}

// add appends one sample to the in-memory window (the caller handles the
// segment log) and trims past retention.
func (tr *tier) add(t int64, sample map[string]float64) {
	tr.times = append(tr.times, t)
	tr.lastT = t
	n := len(tr.times)
	for name := range sample {
		if _, ok := tr.cols[name]; !ok {
			col := make([]float64, n-1, n)
			for i := range col {
				col[i] = math.NaN()
			}
			tr.cols[name] = col
		}
	}
	for name, col := range tr.cols {
		v, ok := sample[name]
		if !ok {
			v = math.NaN()
		}
		tr.cols[name] = append(col, v)
	}
	// Trim in chunks so retention costs amortized O(1) per append, not a
	// full copy every tick.
	if over := n - tr.spec.Retain; over > tr.spec.Retain/4+1 {
		tr.times = append(tr.times[:0:0], tr.times[over:]...)
		for name, col := range tr.cols {
			tr.cols[name] = append(col[:0:0], col[over:]...)
		}
	}
}

// TSDB is the on-disk metrics time-series store: the server appends its
// flattened registry snapshot every sampling tick, and queries read
// merged history across the downsampling tiers. Safe for concurrent use.
// A TSDB opened with an empty dir is memory-only (bounded, lost on
// restart); with a dir, history survives kill -9 — segments are scanned
// and tail-truncated on startup.
type TSDB struct {
	mu    sync.RWMutex
	tiers []*tier
	dir   string
	// Dropped counts unverifiable lines discarded at startup
	// (torn appends, tampering) — exposed for the startup log line.
	Dropped int
}

// tsdbSample is the on-disk payload of one snapshot line.
type tsdbSample map[string]float64

// OpenTSDB opens (or creates) the store under dir with the given tiers
// (nil selects DefaultTiers). An empty dir is memory-only.
func OpenTSDB(dir string, specs []TierSpec) (*TSDB, error) {
	if specs == nil {
		specs = DefaultTiers()
	}
	db := &TSDB{dir: dir}
	for _, spec := range specs {
		if spec.Retain < 2 {
			spec.Retain = 2
		}
		tr := &tier{spec: spec, cols: make(map[string][]float64)}
		if dir != "" {
			maxLines := spec.Retain / 8
			if maxLines < 64 {
				maxLines = 64
			}
			log, recs, dropped, err := store.OpenRing(filepath.Join(dir, spec.Name), "seg", maxLines, spec.Retain/maxLines+2)
			if err != nil {
				return nil, err
			}
			tr.log = log
			db.Dropped += dropped
			for _, rec := range recs {
				var sample tsdbSample
				if json.Unmarshal(rec.D, &sample) != nil {
					db.Dropped++
					continue
				}
				// Replay through the same dedup/ordering rules as live
				// appends; out-of-order records (clock skew across a
				// restart) are skipped rather than corrupting the window.
				if len(tr.times) > 0 && rec.T <= tr.lastT {
					continue
				}
				tr.add(rec.T, sample)
			}
		}
		db.tiers = append(db.tiers, tr)
	}
	return db, nil
}

// Append records one snapshot at t (unix milliseconds). Each tier keeps
// the sample if its downsampling step has elapsed; the raw tier keeps
// every one. Values that are NaN or Inf are dropped (they cannot be
// persisted as JSON and mean nothing on a chart).
func (db *TSDB) Append(t int64, snapshot map[string]float64) error {
	sample := make(tsdbSample, len(snapshot))
	for k, v := range snapshot {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		sample[k] = v
	}
	var data []byte
	var err error

	db.mu.Lock()
	defer db.mu.Unlock()
	for _, tr := range db.tiers {
		if len(tr.times) > 0 && t <= tr.lastT {
			continue // clock went backwards; keep the window monotone
		}
		if !tr.wants(t) {
			continue
		}
		if tr.log != nil && data == nil {
			if data, err = json.Marshal(sample); err != nil {
				return fmt.Errorf("obs: encoding snapshot: %w", err)
			}
		}
		if tr.log != nil {
			if aerr := tr.log.Append(t, data); aerr != nil && err == nil {
				err = aerr
			}
		}
		tr.add(t, sample)
	}
	return err
}

// Series returns every series name present in any tier, sorted.
func (db *TSDB) Series() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	seen := make(map[string]bool)
	for _, tr := range db.tiers {
		for name := range tr.cols {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Point is one (timestamp, value) sample; T is unix milliseconds.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// Query returns the merged history of one series pattern over
// [from, to], coarse tiers filling where fine-tier retention has aged
// out and fine tiers winning where they overlap. A pattern ending in '*'
// sums every series sharing the prefix (e.g. "wcetd_requests_total*"
// across endpoints). step > 0 (milliseconds) reduces the result to the
// last sample of each step-aligned bucket. from/to of 0 mean
// "unbounded".
func (db *TSDB) Query(pattern string, from, to, step int64) []Point {
	if to == 0 {
		to = math.MaxInt64
	}
	db.mu.RLock()
	merged := make(map[int64]float64)
	for i := len(db.tiers) - 1; i >= 0; i-- { // coarsest first; finer overwrite
		tr := db.tiers[i]
		cols := matchCols(tr.cols, pattern)
		if len(cols) == 0 {
			continue
		}
		lo := sort.Search(len(tr.times), func(j int) bool { return tr.times[j] >= from })
		for j := lo; j < len(tr.times) && tr.times[j] <= to; j++ {
			sum, any := 0.0, false
			for _, col := range cols {
				if v := col[j]; !math.IsNaN(v) {
					sum += v
					any = true
				}
			}
			if any {
				merged[tr.times[j]] = sum
			}
		}
	}
	db.mu.RUnlock()

	pts := make([]Point, 0, len(merged))
	for t, v := range merged {
		pts = append(pts, Point{T: t, V: v})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].T < pts[j].T })
	if step > 0 && len(pts) > 1 {
		reduced := pts[:0]
		for _, p := range pts {
			bucket := p.T / step
			if n := len(reduced); n > 0 && reduced[n-1].T/step == bucket {
				reduced[n-1] = p // last sample of the bucket wins
			} else {
				reduced = append(reduced, p)
			}
		}
		pts = reduced
	}
	return pts
}

// matchCols resolves a series pattern against a tier's columns: an exact
// name or a trailing-'*' prefix match.
func matchCols(cols map[string][]float64, pattern string) [][]float64 {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		var out [][]float64
		for name, col := range cols {
			if strings.HasPrefix(name, prefix) {
				out = append(out, col)
			}
		}
		return out
	}
	if col, ok := cols[pattern]; ok {
		return [][]float64{col}
	}
	return nil
}

// Close syncs and closes the segment logs.
func (db *TSDB) Close() {
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, tr := range db.tiers {
		tr.log.Close()
	}
}

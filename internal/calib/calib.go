// Package calib is the streaming calibration engine behind the latency
// tables the contention models consume: it ingests batches of DSU counter
// readings taken around single-path microbenchmark runs (from the
// simulator, or over the wire from a hardware rig) and maintains, per SRI
// access path, the paper's Table-2 estimator — worst-case end-to-end
// latency from prefetch-off runs, best-case latency from prefetch-on
// sequential runs, minimum stall cycles per request — together with
// sample counts, percentile aggregates and a convergence verdict.
//
// The engine is incremental by design: batches may arrive over many
// requests, each Ingest folds new evidence into the running estimates,
// and Table materialises the current candidate once every legal path has
// coverage. Drift compares a candidate against a reference table (the
// currently-serving one, say) and flags any figure that moved beyond a
// relative tolerance — the recalibration trigger for a live deployment.
//
// Samples are untrusted input: every reading is validated, deltas must be
// internally consistent with the claimed access count, and a bad sample
// rejects the batch with its index rather than corrupting the estimates.
package calib

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// Process-wide calibration telemetry on the default registry (exposed
// by wcetd's GET /metrics).
var (
	mBatches = telemetry.Default().Counter("calib_batches_total",
		"Sample batches accepted by calibration engines (rejected batches excluded).")
	mSamples = telemetry.Default().Counter("calib_samples_total",
		"Individual samples accepted by calibration engines.")
	mDriftChecks = telemetry.Default().Counter("calib_drift_checks_total",
		"Drift comparisons run.")
	mDrifted = telemetry.Default().Counter("calib_drifted_total",
		"Drift comparisons that flagged at least one figure beyond tolerance.")
)

// Sample is one microbenchmark measurement: the DSU counter deltas
// observed around a run of Accesses back-to-back requests on one access
// path, with the flash prefetch buffers on or off.
type Sample struct {
	// Path is the access path measured ("pf0/co", "lmu/da", ...).
	Path string `json:"path"`
	// Accesses is the number of SRI requests the microbenchmark issued —
	// known by construction, it is the divisor of the estimator.
	Accesses int64 `json:"accesses"`
	// Prefetch reports whether the flash prefetch buffers were active:
	// off measures lmax and the stall floor, on (with a sequential
	// stream) measures lmin.
	Prefetch bool `json:"prefetch"`
	// Readings is the counter delta over the run (end snapshot minus
	// start snapshot of a free-running bank).
	Readings dsu.Readings `json:"readings"`
}

// Batch is a set of samples ingested together — the wire format of
// cmd/aurixsim -emit-readings and the payload core of POST /v2/calibrate.
type Batch struct {
	Samples []Sample `json:"samples"`
}

// Config tunes the engine. The zero value is usable.
type Config struct {
	// MinSamples is how many samples each (path, prefetch-mode) needs
	// before the path can count as converged; <= 0 selects 1.
	MinSamples int
	// StableTail requires the path's estimates to have been unchanged by
	// the last StableTail samples before it counts as converged; <= 0
	// selects 0 (coverage alone converges — right for the deterministic
	// simulator, too lax for noisy silicon).
	StableTail int
	// MaxSamples caps the session's total retained samples — the engine
	// keeps per-sample latency estimates for percentile reporting, so an
	// unbounded streaming session would grow without limit. Ingest
	// rejects batches that would exceed the cap (reset the session to
	// continue); <= 0 selects 65536.
	MaxSamples int
}

func (c Config) withDefaults() Config {
	if c.MinSamples <= 0 {
		c.MinSamples = 1
	}
	if c.StableTail < 0 {
		c.StableTail = 0
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 65536
	}
	return c
}

// pathState is the running aggregate for one access path.
type pathState struct {
	// offCount/onCount are samples seen per prefetch mode.
	offCount, onCount int64
	// lMax is the max per-request latency over prefetch-off samples.
	lMax int64
	// lMin is the min per-request latency over prefetch-on samples.
	lMin int64
	// cs is the min per-request stall over prefetch-off samples.
	cs int64
	// offLats/onLats keep every per-request latency estimate for
	// percentile reporting (one entry per sample, so growth is bounded
	// by the sample count, not the access count).
	offLats, onLats []int64
	// sinceChange counts samples ingested for this path since any of
	// lMax/lMin/cs last changed.
	sinceChange int
}

// Engine is the streaming estimator. It is safe for concurrent use; a
// server can expose one session across many requests.
type Engine struct {
	cfg Config

	mu    sync.Mutex
	paths map[platform.TargetOp]*pathState
	total int64
}

// New builds an engine.
func New(cfg Config) *Engine {
	return &Engine{
		cfg:   cfg.withDefaults(),
		paths: make(map[platform.TargetOp]*pathState),
	}
}

// parsePath resolves the wire path name.
func parsePath(s string) (platform.TargetOp, error) {
	for _, to := range platform.AccessPairs() {
		if to.String() == s {
			return to, nil
		}
	}
	return platform.TargetOp{}, fmt.Errorf("calib: unknown access path %q", s)
}

// PerAccess is the paper's Table-2 estimator on the readings of n
// back-to-back accesses of kind op: latency is (CCNT / n) - 1 — one
// dispatch cycle per access is pipeline time, not transaction latency —
// and stall is the matching stall counter (PS for code, DS for data) over
// n. Both this engine and the experiments' Table 2 regeneration use it.
func PerAccess(op platform.Op, n int64, r dsu.Readings) (lat, stall int64, err error) {
	lat = r.CCNT/n - 1
	if lat < 1 {
		return 0, 0, fmt.Errorf("calib: %d cycles over %d accesses implies a sub-cycle latency — count and readings disagree", r.CCNT, n)
	}
	stall = r.PS
	if op == platform.Data {
		stall = r.DS
	}
	return lat, stall / n, nil
}

// validate rejects a sample before it can touch the aggregates.
func validate(s Sample) (platform.TargetOp, error) {
	to, err := parsePath(s.Path)
	if err != nil {
		return platform.TargetOp{}, err
	}
	if s.Accesses <= 0 {
		return platform.TargetOp{}, fmt.Errorf("calib: accesses must be positive, got %d", s.Accesses)
	}
	if err := s.Readings.Validate(); err != nil {
		return platform.TargetOp{}, err
	}
	if s.Readings.CCNT <= 0 {
		return platform.TargetOp{}, fmt.Errorf("calib: sample has no cycles (CCNT %d)", s.Readings.CCNT)
	}
	return to, nil
}

// Ingest folds a batch into the running estimates. A malformed sample
// fails the whole batch (labelled with its index) without applying any of
// it, so one poisoned wire payload cannot half-apply.
func (e *Engine) Ingest(b Batch) error {
	type parsed struct {
		to         platform.TargetOp
		s          Sample
		lat, stall int64
	}
	ps := make([]parsed, 0, len(b.Samples))
	for i, s := range b.Samples {
		to, err := validate(s)
		if err != nil {
			return fmt.Errorf("calib: sample %d: %w", i, err)
		}
		lat, stall, err := PerAccess(to.Op, s.Accesses, s.Readings)
		if err != nil {
			return fmt.Errorf("calib: sample %d: %w", i, err)
		}
		ps = append(ps, parsed{to: to, s: s, lat: lat, stall: stall})
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.total+int64(len(ps)) > int64(e.cfg.MaxSamples) {
		return fmt.Errorf("calib: batch of %d samples would exceed the session cap of %d (total so far %d) — reset the session to continue",
			len(ps), e.cfg.MaxSamples, e.total)
	}
	for _, p := range ps {
		st, ok := e.paths[p.to]
		if !ok {
			st = &pathState{}
			e.paths[p.to] = st
		}
		changed := false
		if p.s.Prefetch {
			st.onLats = append(st.onLats, p.lat)
			if st.onCount == 0 || p.lat < st.lMin {
				st.lMin, changed = p.lat, true
			}
			st.onCount++
		} else {
			st.offLats = append(st.offLats, p.lat)
			if st.offCount == 0 || p.lat > st.lMax {
				st.lMax, changed = p.lat, true
			}
			if st.offCount == 0 || p.stall < st.cs {
				st.cs, changed = p.stall, true
			}
			st.offCount++
		}
		if changed {
			st.sinceChange = 0
		} else {
			st.sinceChange++
		}
		e.total++
	}
	mBatches.Inc()
	mSamples.Add(int64(len(ps)))
	return nil
}

// PathReport is the running state of one access path.
type PathReport struct {
	Path string `json:"path"`
	// SamplesOff/SamplesOn count ingested samples per prefetch mode.
	SamplesOff int64 `json:"samplesOff"`
	SamplesOn  int64 `json:"samplesOn"`
	// LMax/LMin/Stall are the current Table-2 estimates (lmin is -1
	// until a prefetch-on sample arrives; the others are -1 until a
	// prefetch-off one does).
	LMax  int64 `json:"lmax"`
	LMin  int64 `json:"lmin"`
	Stall int64 `json:"stall"`
	// P50Off/P95Off are percentiles of the per-request latency over
	// prefetch-off samples (-1 without samples) — dispersion that the
	// min/max table figures cannot show.
	P50Off int64 `json:"p50Off"`
	P95Off int64 `json:"p95Off"`
	// Converged reports whether this path has met the engine's sample
	// floor and stability tail.
	Converged bool `json:"converged"`
}

// Report is a full snapshot of the engine.
type Report struct {
	// TotalSamples is every sample ever ingested into this session.
	TotalSamples int64 `json:"totalSamples"`
	// Paths holds one entry per legal access path, in platform order,
	// including paths with no samples yet.
	Paths []PathReport `json:"paths"`
	// Converged reports whether every legal path converged.
	Converged bool `json:"converged"`
}

// percentile returns the p-quantile (0..100) of xs by nearest-rank;
// -1 for an empty set.
func percentile(xs []int64, p int) int64 {
	if len(xs) == 0 {
		return -1
	}
	sorted := append([]int64(nil), xs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// Report snapshots the running state of every legal access path.
func (e *Engine) Report() Report {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := Report{TotalSamples: e.total, Converged: true}
	for _, to := range platform.AccessPairs() {
		pr := PathReport{Path: to.String(), LMax: -1, LMin: -1, Stall: -1, P50Off: -1, P95Off: -1}
		if st, ok := e.paths[to]; ok {
			pr.SamplesOff, pr.SamplesOn = st.offCount, st.onCount
			if st.offCount > 0 {
				pr.LMax, pr.Stall = st.lMax, st.cs
				pr.P50Off = percentile(st.offLats, 50)
				pr.P95Off = percentile(st.offLats, 95)
			}
			if st.onCount > 0 {
				pr.LMin = st.lMin
			}
			pr.Converged = e.convergedLocked(st)
		}
		if !pr.Converged {
			out.Converged = false
		}
		out.Paths = append(out.Paths, pr)
	}
	return out
}

func (e *Engine) convergedLocked(st *pathState) bool {
	min := int64(e.cfg.MinSamples)
	return st.offCount >= min && st.onCount >= min && st.sinceChange >= e.cfg.StableTail
}

// Converged reports whether every legal path has converged.
func (e *Engine) Converged() bool {
	return e.Report().Converged
}

// Table materialises the current candidate latency table. It fails while
// any legal path still lacks prefetch-off or prefetch-on coverage, and it
// validates the result — measurement noise that produced an inconsistent
// table (lmin above lmax, say) is surfaced here, not downstream.
func (e *Engine) Table() (platform.LatencyTable, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var lt platform.LatencyTable
	for _, to := range platform.AccessPairs() {
		st, ok := e.paths[to]
		if !ok || st.offCount == 0 || st.onCount == 0 {
			return lt, fmt.Errorf("calib: path %s lacks coverage (need at least one prefetch-off and one prefetch-on sample)", to)
		}
		lt[to.Target][to.Op] = platform.Latency{Max: st.lMax, Min: st.lMin, Stall: st.cs}
	}
	if err := lt.Validate(); err != nil {
		return platform.LatencyTable{}, fmt.Errorf("calib: measured table is inconsistent: %w", err)
	}
	return lt, nil
}

// FieldDrift is one figure's movement between candidate and reference.
type FieldDrift struct {
	Path  string `json:"path"`
	Field string `json:"field"` // "lmax", "lmin" or "stall"
	// Candidate and Reference are the two values.
	Candidate int64 `json:"candidate"`
	Reference int64 `json:"reference"`
	// RelDelta is |candidate-reference| / reference.
	RelDelta float64 `json:"relDelta"`
	// Exceeds reports whether RelDelta is beyond the tolerance.
	Exceeds bool `json:"exceeds"`
}

// DriftReport compares a candidate table against a reference.
type DriftReport struct {
	// Tolerance is the relative threshold the comparison ran with.
	Tolerance float64 `json:"tolerance"`
	// Drifted reports whether any figure exceeded the tolerance.
	Drifted bool `json:"drifted"`
	// Fields lists only the figures that moved at all (RelDelta > 0),
	// worst first.
	Fields []FieldDrift `json:"fields,omitempty"`
}

// DefaultTolerance is the drift threshold used when a caller passes a
// non-positive one: 5% — tighter than the coarsest Table-2 step (the
// pf lmax 16 vs lmin 12 spread is 25%), loose enough to ignore ±1-cycle
// estimator jitter on double-digit figures.
const DefaultTolerance = 0.05

// Drift flags every figure of candidate that moved beyond tol relative to
// reference. A non-positive tol selects DefaultTolerance.
func Drift(candidate, reference platform.LatencyTable, tol float64) DriftReport {
	if tol <= 0 {
		tol = DefaultTolerance
	}
	out := DriftReport{Tolerance: tol}
	for _, to := range platform.AccessPairs() {
		c, r := candidate[to.Target][to.Op], reference[to.Target][to.Op]
		for _, f := range []struct {
			name   string
			cv, rv int64
		}{
			{"lmax", c.Max, r.Max},
			{"lmin", c.Min, r.Min},
			{"stall", c.Stall, r.Stall},
		} {
			if f.cv == f.rv {
				continue
			}
			delta := f.cv - f.rv
			if delta < 0 {
				delta = -delta
			}
			rel := float64(delta)
			if f.rv != 0 {
				rel = float64(delta) / float64(f.rv)
			}
			fd := FieldDrift{
				Path: to.String(), Field: f.name,
				Candidate: f.cv, Reference: f.rv,
				RelDelta: rel, Exceeds: rel > tol,
			}
			if fd.Exceeds {
				out.Drifted = true
			}
			out.Fields = append(out.Fields, fd)
		}
	}
	sort.Slice(out.Fields, func(i, j int) bool {
		if out.Fields[i].RelDelta != out.Fields[j].RelDelta {
			return out.Fields[i].RelDelta > out.Fields[j].RelDelta
		}
		if out.Fields[i].Path != out.Fields[j].Path {
			return out.Fields[i].Path < out.Fields[j].Path
		}
		return out.Fields[i].Field < out.Fields[j].Field
	})
	mDriftChecks.Inc()
	if out.Drifted {
		mDrifted.Inc()
	}
	return out
}

// Package campaign is the parallel experiment-campaign engine: it fans
// independent simulation runs across a pool of workers, memoizes isolation
// measurements so sweep cells stop recomputing shared baselines, and
// assembles results in stable input order so a parallel campaign is
// byte-identical to a serial one.
//
// The paper's evaluation is a grid of measurement campaigns — Table 2
// calibration paths, Table 6 readings, Figure 4 cells, the OEM budget
// sweep — whose cells are mutually independent: every cell is a
// deterministic simulation of a fixed trace on a fixed latency table.
// That independence is what the engine exploits. Determinism is preserved
// by construction: cells never share mutable state (each sim.Run builds
// its own crossbar and cores), workers write results only into their own
// input slot, and the memo cache can substitute a cached result for a
// recomputation only because the simulator is deterministic in its inputs.
package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Process-wide campaign telemetry on the default registry (exposed by
// wcetd's GET /metrics): all engines aggregate into the same series,
// beside each Engine's own Stats snapshot.
var (
	mCells = telemetry.Default().Counter("campaign_cells_total",
		"Campaign cells executed across all engines.")
	mMemoHits = telemetry.Default().Counter("campaign_memo_hits_total",
		"Isolation runs served from the memo cache.")
	mMemoMisses = telemetry.Default().Counter("campaign_memo_misses_total",
		"Isolation runs that had to be simulated.")
	mSimRuns = telemetry.Default().Counter("campaign_sim_runs_total",
		"Simulator invocations performed by campaign engines.")
	mBgCells = telemetry.Default().Counter("campaign_bg_cells_total",
		"Campaign cells executed at Background priority.")
	mBgYields = telemetry.Default().Counter("campaign_bg_yields_total",
		"Background slot acquisitions deferred to waiting interactive work.")
)

// Priority orders slot acquisition on an Engine's shared semaphore.
// Interactive is the serving path: it competes for every slot with no
// gate. Background is bulk campaign-job work: it is capped below the full
// pool width (at least one slot of headroom whenever the pool has more
// than one) and it parks whenever an interactive acquirer is waiting, so
// a long-running job soaks idle capacity without starving request
// latency. The inversion window is bounded by one cell duration: slots
// already held by background cells are never preempted.
type Priority int

const (
	// Interactive is the default serving-path priority.
	Interactive Priority = iota
	// Background is the bulk campaign-job priority.
	Background
)

// Engine schedules campaign cells across a fixed worker pool and caches
// isolation measurements across cells, campaigns and artefacts.
//
// An Engine is safe for concurrent use. The zero value is not usable; use
// New.
type Engine struct {
	workers int

	// slots is an engine-level semaphore shared by every campaign on this
	// engine, and the one bound on solver parallelism: a cell runs only
	// while its goroutine holds a slot. A single campaign is unaffected
	// (its caller and at most workers-1 helpers work it, each holding at
	// most one slot), but concurrent campaigns — the serving layer runs
	// every cache miss and batch request as its own campaign, on its
	// handler's goroutine and under its deadline — share the one bounded
	// pool. Jobs must not schedule new campaigns on the same engine: with
	// every slot held by their parents, the nested campaign would deadlock.
	slots chan struct{}

	// bgTickets caps how many slots Background work may hold at once:
	// max(1, workers-1), so interactive traffic always has headroom on a
	// pool wider than one slot. A background worker must hold a ticket
	// before it may take a slot.
	bgTickets chan struct{}
	// hiWaiting counts interactive acquirers currently blocked on slots;
	// background acquirers park while it is non-zero.
	hiWaiting atomic.Int64

	mu  sync.Mutex
	iso map[isoKey]*isoEntry

	hits   atomic.Int64
	misses atomic.Int64
	runs   atomic.Int64
}

// New returns an engine with the given worker-pool width. workers <= 0
// selects GOMAXPROCS, the hardware parallelism available to the process.
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bg := workers - 1
	if bg < 1 {
		bg = 1
	}
	return &Engine{
		workers:   workers,
		slots:     make(chan struct{}, workers),
		bgTickets: make(chan struct{}, bg),
		iso:       make(map[isoKey]*isoEntry),
	}
}

// Workers reports the pool width.
func (e *Engine) Workers() int { return e.workers }

// Stats is a snapshot of the engine's counters.
type Stats struct {
	// IsolationHits counts isolation runs served from the memo cache.
	IsolationHits int64
	// IsolationMisses counts isolation runs that had to be simulated.
	IsolationMisses int64
	// SimRuns counts simulator invocations the engine performed (memo
	// misses plus co-scheduled runs).
	SimRuns int64
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	return Stats{
		IsolationHits:   e.hits.Load(),
		IsolationMisses: e.misses.Load(),
		SimRuns:         e.runs.Load(),
	}
}

// Job is one independent campaign cell: it produces a value or an error.
// Jobs must not share mutable state with each other.
type Job[T any] func(ctx context.Context) (T, error)

// Outcome is the per-cell result of a campaign: exactly one of Value and
// Err is meaningful. Cells that were never started because the campaign's
// context was cancelled carry the context's error.
type Outcome[T any] struct {
	Value T
	Err   error
}

// errNotRun marks outcome slots whose job never started; it is replaced by
// the context error after the pool drains and never escapes the package.
var errNotRun = errors.New("campaign: job not run")

// bgParkInterval is how long a background acquirer sleeps between checks
// while interactive work is waiting for slots. Short enough that a
// background campaign resumes promptly when the interactive burst drains,
// long enough to stay invisible next to a cell's runtime.
const bgParkInterval = time.Millisecond

// acquire takes one engine slot at the given priority. It returns false
// if ctx was cancelled before a slot was obtained; on true the caller
// must call release with the same priority after the job completes.
func (e *Engine) acquire(ctx context.Context, pri Priority) bool {
	if pri != Background {
		e.hiWaiting.Add(1)
		defer e.hiWaiting.Add(-1)
		select {
		case e.slots <- struct{}{}:
			return true
		case <-ctx.Done():
			return false
		}
	}
	// Background: hold a ticket (caps concurrent background slots below
	// the pool width), and yield to any waiting interactive acquirer.
	select {
	case e.bgTickets <- struct{}{}:
	case <-ctx.Done():
		return false
	}
	yielded := false
	for e.hiWaiting.Load() > 0 {
		if !yielded {
			yielded = true
			mBgYields.Inc()
		}
		select {
		case <-time.After(bgParkInterval):
		case <-ctx.Done():
			<-e.bgTickets
			return false
		}
	}
	select {
	case e.slots <- struct{}{}:
		return true
	case <-ctx.Done():
		<-e.bgTickets
		return false
	}
}

// release returns a slot taken by acquire at the same priority.
func (e *Engine) release(pri Priority) {
	<-e.slots
	if pri == Background {
		<-e.bgTickets
	}
}

// All runs every job on e's worker pool and returns one outcome per job,
// in input order, regardless of which worker finished which job when. It
// collects per-run errors rather than failing fast: a failing cell never
// prevents the remaining cells from running. Cancelling ctx stops workers
// from picking up new jobs; jobs that never started report
// context.Cause(ctx).
func All[T any](ctx context.Context, e *Engine, jobs []Job[T]) []Outcome[T] {
	return AllAt(ctx, e, Interactive, jobs)
}

// AllAt is All with an explicit admission priority. Background campaigns
// run on the same bounded pool but leave headroom for — and yield slots
// to — Interactive work; see Priority.
//
// The calling goroutine works cells itself, beside up to workers-1
// helpers; all of them claim cell indices from one cursor, so a one-wide
// engine or a one-cell campaign starts no goroutine.
func AllAt[T any](ctx context.Context, e *Engine, pri Priority, jobs []Job[T]) []Outcome[T] {
	outcomes := make([]Outcome[T], len(jobs))
	for i := range outcomes {
		outcomes[i].Err = errNotRun
	}

	var next atomic.Int64
	work := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) || !e.acquire(ctx, pri) {
				// A cell whose slot never came keeps its not-run outcome;
				// it picks up the context's cause once the pool drains.
				return
			}
			mCells.Inc()
			if pri == Background {
				mBgCells.Inc()
			}
			v, err := jobs[i](ctx)
			outcomes[i] = Outcome[T]{Value: v, Err: err}
			e.release(pri)
		}
	}
	var wg sync.WaitGroup
	for range min(e.workers, len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()

	for i := range outcomes {
		if outcomes[i].Err == errNotRun {
			outcomes[i] = Outcome[T]{Err: context.Cause(ctx)}
		}
	}
	return outcomes
}

// Batch maps every item through fn on e's worker pool — the batched solve
// entry point the serving layer's /v1/batch fan-out runs on. It is All
// without the per-item closure ceremony: one outcome per item, in input
// order, per-item errors, bounded by the engine's shared slot semaphore.
// Because a batch drains through the one engine pool, consecutive solves
// land on a bounded set of goroutines and the solver pools in
// internal/ilp re-serve their tableau arenas instead of growing fresh
// state per cell.
func Batch[In, Out any](ctx context.Context, e *Engine, items []In, fn func(context.Context, In) (Out, error)) []Outcome[Out] {
	jobs := make([]Job[Out], len(items))
	for i := range items {
		item := items[i]
		jobs[i] = func(ctx context.Context) (Out, error) {
			return fn(ctx, item)
		}
	}
	return All(ctx, e, jobs)
}

// Collect runs every job on e's worker pool and returns the values in
// input order. If any cell failed, it returns the values gathered so far
// alongside an error joining every per-cell failure (each annotated with
// its cell index).
func Collect[T any](ctx context.Context, e *Engine, jobs []Job[T]) ([]T, error) {
	outcomes := All(ctx, e, jobs)
	values := make([]T, len(outcomes))
	var errs []error
	for i, o := range outcomes {
		values[i] = o.Value
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("cell %d: %w", i, o.Err))
		}
	}
	if len(errs) > 0 {
		return values, errors.Join(errs...)
	}
	return values, nil
}

// isoKey identifies one isolation measurement: the full latency table (a
// comparable value type), the core the task runs on, the caller's
// canonical description of the task, and the run configuration.
type isoKey struct {
	lat  platform.LatencyTable
	core int
	task string
	cfg  string
}

// isoEntry is a once-per-key computation slot: concurrent requests for the
// same key block on the first one's sync.Once instead of simulating twice.
type isoEntry struct {
	once sync.Once
	res  sim.Result
	err  error
}

// configKey canonicalises a sim.Config into a deterministic string (map
// fields are emitted in sorted key order). It appends with strconv, not
// fmt: every memoized isolation lookup builds one, warm cells included.
func configKey(cfg sim.Config) string {
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(append(b, "max="...), cfg.MaxCycles, 10)
	b = strconv.AppendBool(append(b, ";pf="...), cfg.FlashPrefetch)
	b = strconv.AppendUint(append(b, ";jitter="...), cfg.JitterSeed, 10)
	b = appendIntMap(b, ";stall=", cfg.StallBudgets)
	b = appendIntMap(b, ";prio=", cfg.SRIPriorities)
	return string(b)
}

// appendIntMap appends tag and the map's k:v, entries in key order; an
// empty map appends nothing.
func appendIntMap[V int | int64](b []byte, tag string, m map[int]V) []byte {
	if len(m) == 0 {
		return b
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	b = append(b, tag...)
	for _, k := range keys {
		b = strconv.AppendInt(b, int64(k), 10)
		b = strconv.AppendInt(append(b, ':'), int64(m[k]), 10)
		b = append(b, ',')
	}
	return b
}

// Isolation performs a memoized isolation run. taskKey must canonically
// describe the task build produces: two calls may share a key only if
// build yields byte-identical traces on identical core kinds. On a cache
// hit, build is never called and the cached result is returned; on a miss,
// the task is built and simulated exactly once, even under concurrent
// requests for the same key.
//
// The returned Result is shared between all callers of the same key and
// must be treated as read-only.
func (e *Engine) Isolation(ctx context.Context, lat platform.LatencyTable, coreIdx int, taskKey string, cfg sim.Config, build func() (sim.Task, error)) (sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	key := isoKey{lat: lat, core: coreIdx, task: taskKey, cfg: configKey(cfg)}

	e.mu.Lock()
	entry, ok := e.iso[key]
	if !ok {
		entry = &isoEntry{}
		e.iso[key] = entry
	}
	e.mu.Unlock()

	computed := false
	entry.once.Do(func() {
		computed = true
		e.misses.Add(1)
		mMemoMisses.Inc()
		task, err := build()
		if err != nil {
			entry.err = fmt.Errorf("campaign: building task %q: %w", taskKey, err)
			return
		}
		e.runs.Add(1)
		mSimRuns.Inc()
		entry.res, entry.err = sim.RunIsolation(lat, coreIdx, task, cfg)
	})
	if !computed {
		e.hits.Add(1)
		mMemoHits.Inc()
	}
	return entry.res, entry.err
}

// Run performs a (non-memoized) co-scheduled simulation through the
// engine, so cancellation and run accounting cover multicore cells too.
func (e *Engine) Run(ctx context.Context, lat platform.LatencyTable, tasks map[int]sim.Task, analysed int, cfg sim.Config) (sim.Result, error) {
	if err := ctx.Err(); err != nil {
		return sim.Result{}, err
	}
	e.runs.Add(1)
	mSimRuns.Inc()
	return sim.Run(lat, tasks, analysed, cfg)
}

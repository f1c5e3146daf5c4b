// Package sim is the multicore simulation harness: it instantiates the
// simulated TC27x (three TriCore cores behind the SRI crossbar), runs task
// sets on it, and returns what the paper's measurement protocol collects —
// DSU counter readings and observed execution times — plus the ground-truth
// per-target access counts (PTAC) and contention waits that only a
// simulator can see and that the tests use to validate the models.
//
// The harness stands in for the paper's hardware testbed (a TC277
// application kit driven through the debug interface). The substitution is
// sound because the contention models consume nothing but the DSU readings
// and the isolation execution time, both of which the harness produces
// through the same mechanisms (per-slave round-robin arbitration, Table 2
// latencies, cache filtering) that create them on silicon.
//
// Time advances from event to event rather than cycle by cycle. Each core
// and the SRI report the next cycle at which they do more than count: a
// ready core acts at once, a computing core when its gap ends, a blocked
// core only when the SRI completes its transaction, and the SRI at its
// earliest retirement or grant. The loop jumps to the minimum of those
// cycles and credits the skipped ones in bulk (CCNT and the remaining gap
// advance by the jump), so every reading, wait and cycle count is the
// one a per-cycle stepper produces.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/sri"
	"repro/internal/trace"
	"repro/internal/tricore"
)

// NumCores is the number of cores on the TC277.
const NumCores = 3

// Task is one workload to place on a core.
type Task struct {
	// Kind is the core microarchitecture to run on. The TC277 pairing is
	// core 0 = TC16E, cores 1 and 2 = TC16P; Run applies that pairing
	// when Kind is left at its zero value on core 0 ... callers normally
	// just set it explicitly.
	Kind tricore.Kind
	// Src is the task's access stream, executed once.
	Src trace.Source
}

// Result collects everything observable from one run.
type Result struct {
	// Cycles is the cycle at which the run's stop condition was met (the
	// analysed task finished).
	Cycles int64
	// Readings holds each active core's DSU snapshot at stop time.
	Readings map[int]dsu.Readings
	// Done reports which active cores had finished their trace at stop
	// time.
	Done map[int]bool
	// PTAC is the simulator's ground truth: SRI transactions per core per
	// (target, op). Unavailable on real hardware.
	PTAC map[int]map[platform.TargetOp]int64
	// WaitCycles is the exact arbitration wait each core suffered, per
	// target: the true contention. Unavailable on real hardware.
	WaitCycles map[int]map[platform.Target]int64
}

// TotalWait sums core's arbitration wait over all targets.
func (r Result) TotalWait(core int) int64 {
	var sum int64
	for _, w := range r.WaitCycles[core] {
		sum += w
	}
	return sum
}

// ErrDeadline is returned when a run exceeds its cycle budget.
var ErrDeadline = errors.New("sim: cycle budget exhausted before the analysed task finished")

// Config tunes a run.
type Config struct {
	// MaxCycles aborts runaway simulations; 0 means the default budget.
	MaxCycles int64
	// FlashPrefetch enables the SRI flash prefetch buffers: sequential
	// next-line requests are served at the lmin latency of Table 2
	// instead of lmax. Off by default, since the contention models
	// assume worst-case service; the lmin calibration experiment turns
	// it on.
	FlashPrefetch bool
	// StallBudgets, when non-nil, enables RTOS-level contention
	// enforcement in the style of Nowotsch et al. (the paper's ref [16]):
	// a core whose cumulative SRI stall cycles (PMEM_STALL + DMEM_STALL)
	// reach its budget is suspended — it stops issuing new accesses but
	// any in-flight transaction completes. Cores without an entry run
	// unconstrained.
	StallBudgets map[int]int64
	// SRIPriorities assigns cores to SRI priority classes (higher wins
	// arbitration; round-robin within a class). All cores default to the
	// same class — the paper's system model, and the precondition for
	// its contention models to be sound (see
	// TestPriorityClassesVoidModelAssumption).
	SRIPriorities map[int]int
	// JitterSeed, when non-zero, enables deterministic service-time
	// jitter on the SRI: granted service times vary in [lmin, lmax] per
	// transaction. Mutually exclusive with FlashPrefetch: a run given
	// both fails.
	JitterSeed uint64
}

const defaultMaxCycles = 2_000_000_000

// Run simulates the task set until the analysed core finishes its trace.
// tasks maps core index (0..2) to workload; cores without a task stay
// silent. Contender tasks that finish early simply go quiet; contender
// tasks meant to outlast the analysed one must be sized accordingly by the
// caller (the workload generators do).
func Run(lat platform.LatencyTable, tasks map[int]Task, analysed int, cfg Config) (Result, error) {
	if _, ok := tasks[analysed]; !ok {
		return Result{}, fmt.Errorf("sim: analysed core %d has no task", analysed)
	}
	e, err := newEngine(&lat, tasks, cfg)
	if err != nil {
		return Result{}, err
	}
	end, err := e.run(0, analysed)
	if err != nil {
		return Result{}, err
	}
	return e.result(end), nil
}

// RunIsolation runs a single task alone on core coreIdx — the paper's
// pre-integration measurement protocol — and returns its readings.
func RunIsolation(lat platform.LatencyTable, coreIdx int, t Task, cfg Config) (Result, error) {
	return Run(lat, map[int]Task{coreIdx: t}, coreIdx, cfg)
}

// RunIsolationWarm measures a task in isolation after one untimed warm-up
// pass over its trace: the standard MBTA protocol when the steady-state
// (warm-cache) behaviour is the quantity of interest rather than the
// cold-start one. Counter readings and execution time cover only the
// second, timed pass; each pass has the full cycle budget, and a stall
// budget applies to each pass afresh. Jitter draws continue across the
// passes.
//
// Warm measurements are *smaller* in every counter than cold ones, so
// bounds built from cold readings remain valid for warm runs — but not
// vice versa; use warm readings only when the deployment guarantees warm
// caches at activation.
func RunIsolationWarm(lat platform.LatencyTable, coreIdx int, t Task, cfg Config) (Result, error) {
	e, err := newEngine(&lat, map[int]Task{coreIdx: t}, cfg)
	if err != nil {
		return Result{}, err
	}
	// Warm-up pass: executed, then discarded.
	end, err := e.run(0, coreIdx)
	if err != nil {
		return Result{}, err
	}
	core := e.cores[coreIdx]
	core.ResetCounters()
	e.x.ResetStats()
	t.Src.Reset()
	core.Restart()

	start := end + 1
	end, err = e.run(start, coreIdx)
	if err != nil {
		return Result{}, err
	}
	return e.result(end - start), nil
}

// engine is the simulated TC277 of one run: the SRI, the cores that have
// a task, and the enforcement state of their stall budgets.
type engine struct {
	x *sri.Interconnect
	// cores[i] is core i, nil when it has no task.
	cores [NumCores]*tricore.Core
	// quota[i] is core i's stall budget, enforced when hasQuota[i].
	quota    [NumCores]int64
	hasQuota [NumCores]bool
	// suspended[i] is set once core i has exhausted its stall budget.
	// Stall counters only move on a completion, so a suspended core
	// never resumes.
	suspended [NumCores]bool
	budget    int64
}

// newEngine validates cfg and the task placement and builds the platform.
func newEngine(lat *platform.LatencyTable, tasks map[int]Task, cfg Config) (*engine, error) {
	if err := lat.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if cfg.FlashPrefetch && cfg.JitterSeed != 0 {
		return nil, errors.New("sim: FlashPrefetch and JitterSeed are mutually exclusive")
	}
	e := &engine{x: sri.New(NumCores), budget: cfg.MaxCycles}
	if e.budget <= 0 {
		e.budget = defaultMaxCycles
	}
	if cfg.FlashPrefetch {
		e.x.EnableFlashPrefetch(32)
	}
	if cfg.JitterSeed != 0 {
		e.x.EnableServiceJitter(cfg.JitterSeed)
	}
	for m, class := range cfg.SRIPriorities {
		if m < 0 || m >= NumCores {
			return nil, fmt.Errorf("sim: priority for core %d out of range", m)
		}
		e.x.SetMasterPriority(m, class)
	}
	for idx, t := range tasks {
		if idx < 0 || idx >= NumCores {
			return nil, fmt.Errorf("sim: core index %d out of range", idx)
		}
		c, err := tricore.New(tricore.Config{Index: idx, Kind: t.Kind}, lat, e.x, t.Src)
		if err != nil {
			return nil, err
		}
		e.cores[idx] = c
		e.quota[idx], e.hasQuota[idx] = cfg.StallBudgets[idx]
	}
	return e, nil
}

// run advances the platform from cycle start until core analysed finishes
// its trace and returns that cycle. It visits only the cycles at which a
// core or the SRI has an event. A core is ticked only at its own events
// and on completions; the cycles it sat out are credited in bulk first,
// and once more up to the stop cycle, so its counters read as if it had
// been ticked every cycle.
func (e *engine) run(start int64, analysed int) (int64, error) {
	// wake[i] is the next cycle at which core i must tick: sri.Never
	// while it is blocked, done or suspended. credited[i] is the last
	// cycle core i has been ticked or credited for.
	var wake, credited [NumCores]int64
	for i, c := range e.cores {
		wake[i], credited[i] = sri.Never, start-1
		if c != nil && !e.suspended[i] {
			wake[i] = c.NextEvent(start)
		}
	}
	limit := start + e.budget
	for {
		now := e.x.NextEvent()
		for _, w := range wake {
			now = min(now, w)
		}
		if now >= limit {
			// Nothing can happen before the budget runs out, so neither
			// can the analysed core finish.
			break
		}
		for i, c := range e.cores {
			if wake[i] != now {
				continue
			}
			c.Skip(now - credited[i] - 1)
			credited[i] = now
			if e.hasQuota[i] && !e.x.Busy(i) {
				// Enforcement point: once the core's SRI stalls consumed
				// its quota, it is suspended before it can issue again.
				// Only a completion moves the stall counters, and the
				// cycle after one is always an event of the core, so no
				// enforcement point is missed between events.
				r := c.Counters()
				if r.PS+r.DS >= e.quota[i] {
					e.suspended[i] = true
					wake[i] = sri.Never
					continue
				}
			}
			c.Tick(now)
			wake[i] = c.NextEvent(now + 1)
		}
		for _, cmp := range e.x.Tick(now) {
			i, c := cmp.Master, e.cores[cmp.Master]
			// A blocked core counts every cycle through the completing
			// one before it sees the completion.
			c.Skip(now - credited[i])
			credited[i] = now
			c.Complete(now, cmp)
			wake[i] = c.NextEvent(now + 1)
		}
		if e.cores[analysed].Done() {
			for i, c := range e.cores {
				if c != nil && !e.suspended[i] {
					c.Skip(now - credited[i])
				}
			}
			return now, nil
		}
		if e.suspended[analysed] {
			// A suspended core issues nothing: it can never finish.
			break
		}
	}
	return 0, fmt.Errorf("%w (budget %d)", ErrDeadline, e.budget)
}

// result collects the observable state of every active core after a run
// that stopped at cycle cycles.
func (e *engine) result(cycles int64) Result {
	res := Result{
		Cycles:     cycles,
		Readings:   make(map[int]dsu.Readings),
		Done:       make(map[int]bool),
		PTAC:       make(map[int]map[platform.TargetOp]int64),
		WaitCycles: make(map[int]map[platform.Target]int64),
	}
	for idx, c := range e.cores {
		if c == nil {
			continue
		}
		res.Readings[idx] = c.Counters()
		res.Done[idx] = c.Done()
		ptac := make(map[platform.TargetOp]int64)
		for _, to := range platform.AccessPairs() {
			if g := e.x.Grants(idx, to.Target, to.Op); g > 0 {
				ptac[to] = g
			}
		}
		res.PTAC[idx] = ptac
		waits := make(map[platform.Target]int64)
		for _, t := range platform.Targets {
			if w := e.x.WaitCycles(idx, t); w > 0 {
				waits[t] = w
			}
		}
		res.WaitCycles[idx] = waits
	}
	return res
}

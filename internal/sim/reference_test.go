package sim

import (
	"fmt"

	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/sri"
	"repro/internal/tricore"
)

// referenceRun is the cycle stepper that Run replaced, kept verbatim as
// the oracle of the differential tests: it ticks every core and the SRI
// on every cycle until the analysed core finishes its trace.
func referenceRun(lat platform.LatencyTable, tasks map[int]Task, analysed int, cfg Config) (Result, error) {
	if _, ok := tasks[analysed]; !ok {
		return Result{}, fmt.Errorf("sim: analysed core %d has no task", analysed)
	}
	if err := lat.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	x := sri.New(NumCores)
	if cfg.FlashPrefetch {
		x.EnableFlashPrefetch(32)
	}
	if cfg.JitterSeed != 0 {
		x.EnableServiceJitter(cfg.JitterSeed)
	}
	for m, class := range cfg.SRIPriorities {
		if m < 0 || m >= NumCores {
			return Result{}, fmt.Errorf("sim: priority for core %d out of range", m)
		}
		x.SetMasterPriority(m, class)
	}
	cores := make(map[int]*tricore.Core, len(tasks))
	for idx, t := range tasks {
		if idx < 0 || idx >= NumCores {
			return Result{}, fmt.Errorf("sim: core index %d out of range", idx)
		}
		c, err := tricore.New(tricore.Config{Index: idx, Kind: t.Kind}, &lat, x, t.Src)
		if err != nil {
			return Result{}, err
		}
		cores[idx] = c
	}

	budget := cfg.MaxCycles
	if budget <= 0 {
		budget = defaultMaxCycles
	}

	var now int64
	for ; now < budget; now++ {
		for idx, c := range cores {
			if quota, ok := cfg.StallBudgets[idx]; ok && !x.Busy(idx) {
				// Enforcement point: once the core's SRI stalls consumed
				// its quota, it is suspended before it can issue again.
				r := c.Counters()
				if r.PS+r.DS >= quota {
					continue
				}
			}
			c.Tick(now)
		}
		for _, cmp := range x.Tick(now) {
			core, ok := cores[cmp.Master]
			if !ok {
				return Result{}, fmt.Errorf("sim: completion for idle core %d", cmp.Master)
			}
			core.Complete(now, cmp)
		}
		if cores[analysed].Done() {
			break
		}
	}
	if !cores[analysed].Done() {
		return Result{}, fmt.Errorf("%w (budget %d)", ErrDeadline, budget)
	}

	res := Result{
		Cycles:     now,
		Readings:   make(map[int]dsu.Readings, len(cores)),
		Done:       make(map[int]bool, len(cores)),
		PTAC:       make(map[int]map[platform.TargetOp]int64, len(cores)),
		WaitCycles: make(map[int]map[platform.Target]int64, len(cores)),
	}
	for idx, c := range cores {
		res.Readings[idx] = c.Counters()
		res.Done[idx] = c.Done()
		ptac := make(map[platform.TargetOp]int64)
		for _, to := range platform.AccessPairs() {
			if g := x.Grants(idx, to.Target, to.Op); g > 0 {
				ptac[to] = g
			}
		}
		res.PTAC[idx] = ptac
		waits := make(map[platform.Target]int64)
		for _, t := range platform.Targets {
			if w := x.WaitCycles(idx, t); w > 0 {
				waits[t] = w
			}
		}
		res.WaitCycles[idx] = waits
	}
	return res, nil
}

// referenceRunIsolationWarm is the private two-pass loop that
// RunIsolationWarm replaced, kept verbatim as an oracle. It ignores
// Config.JitterSeed, SRIPriorities and StallBudgets, so it is only
// compared on configurations that leave them unset.
func referenceRunIsolationWarm(lat platform.LatencyTable, coreIdx int, t Task, cfg Config) (Result, error) {
	if err := lat.Validate(); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	x := sri.New(NumCores)
	if cfg.FlashPrefetch {
		x.EnableFlashPrefetch(32)
	}
	core, err := tricore.New(tricore.Config{Index: coreIdx, Kind: t.Kind}, &lat, x, t.Src)
	if err != nil {
		return Result{}, err
	}
	budget := cfg.MaxCycles
	if budget <= 0 {
		budget = defaultMaxCycles
	}

	runPass := func(start int64) (int64, error) {
		for now := start; now < start+budget; now++ {
			core.Tick(now)
			for _, cmp := range x.Tick(now) {
				core.Complete(now, cmp)
			}
			if core.Done() {
				return now, nil
			}
		}
		return 0, fmt.Errorf("%w (budget %d)", ErrDeadline, budget)
	}

	// Warm-up pass: executed, then discarded.
	end, err := runPass(0)
	if err != nil {
		return Result{}, err
	}
	core.ResetCounters()
	x.ResetStats()
	t.Src.Reset()
	core.Restart()

	start := end + 1
	end, err = runPass(start)
	if err != nil {
		return Result{}, err
	}

	res := Result{
		Cycles:     end - start,
		Readings:   map[int]dsu.Readings{coreIdx: core.Counters()},
		Done:       map[int]bool{coreIdx: true},
		PTAC:       map[int]map[platform.TargetOp]int64{coreIdx: {}},
		WaitCycles: map[int]map[platform.Target]int64{coreIdx: {}},
	}
	for _, to := range platform.AccessPairs() {
		if g := x.Grants(coreIdx, to.Target, to.Op); g > 0 {
			res.PTAC[coreIdx][to] = g
		}
	}
	return res, nil
}

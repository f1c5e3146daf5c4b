package workload

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/trace"
)

// MicrobenchConfig describes one calibration microbenchmark in the style
// of [10]: a known number of accesses of a single (target, operation) kind,
// so that dividing the observed counter deltas by the access count yields
// the per-request latency and minimum stall of that path (Table 2).
type MicrobenchConfig struct {
	Target platform.Target
	Op     platform.Op
	// Write makes the data accesses stores rather than loads; ignored for
	// code.
	Write bool
	// N is the number of accesses.
	N int
	// Gap inserts compute cycles between accesses; calibration uses 0 to
	// measure back-to-back requests, contention studies may space them.
	Gap int64
	// Core selects the issuing core's address carving.
	Core int
}

// Microbench builds the calibration trace. Accesses use non-cacheable
// addressing (or line-striding where only cacheable segments exist) so that
// every access becomes an SRI transaction — the microbenchmark's defining
// property is that its SRI request count is known by construction.
func Microbench(cfg MicrobenchConfig) (trace.Source, error) {
	if !platform.CanAccess(cfg.Target, cfg.Op) {
		return nil, fmt.Errorf("workload: no %s path to %s", cfg.Op, cfg.Target)
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("workload: access count must be positive, got %d", cfg.N)
	}
	if cfg.Core < 0 || cfg.Core > 2 {
		return nil, fmt.Errorf("workload: core %d out of range", cfg.Core)
	}

	kind := trace.Fetch
	if cfg.Op == platform.Data {
		kind = trace.Load
		if cfg.Write {
			kind = trace.Store
		}
	}

	addr := func(i uint32) uint32 {
		switch cfg.Target {
		case platform.PF0:
			return platform.Uncached(platform.PFlash0Base + uint32(cfg.Core)*pfCodeRegion + (i*lineSize)%pfCodeRegion)
		case platform.PF1:
			return platform.Uncached(platform.PFlash1Base + uint32(cfg.Core)*pfCodeRegion + (i*lineSize)%pfCodeRegion)
		case platform.DFL:
			return platform.DFlashBase + (i*4)%platform.DFlashSize
		case platform.LMU:
			return platform.Uncached(platform.LMUBase) + (i*4)%lmuUncachedSize
		default:
			panic(fmt.Sprintf("workload: bad target %v", cfg.Target))
		}
	}

	step := func(i int, accs []trace.Access) []trace.Access {
		return append(accs, trace.Access{Gap: cfg.Gap, Kind: kind, Addr: addr(uint32(i))})
	}
	return trace.NewGen(cfg.N, step, nil), nil
}

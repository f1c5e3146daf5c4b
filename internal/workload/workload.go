// Package workload generates the task access streams of the paper's
// evaluation: the control-loop application under analysis (an automotive
// cruise-control-style acquire/compute/update loop over two medium-size
// data structures), the H-Load / M-Load / L-Load contender benchmarks that
// put increasing pressure on the SRI, and the calibration microbenchmarks
// of [10] used to derive the per-target latency and minimum-stall figures
// of Table 2.
//
// The paper runs compiled binaries on silicon; these generators produce
// deterministic traces with the same access-pattern *shape* — which SRI
// targets are hit, with what operation mix and density — which is all the
// contention models can observe through the DSU counters. Each generator
// is a trace.Gen: it streams one loop iteration (or burst) at a time, so a
// trace costs the same memory at any length.
package workload

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/trace"
)

// Per-core address-space carving, so tasks on different cores never share
// cache-relevant state accidentally (the shared LMU data region is shared
// on purpose — its timing is all that matters, coherence is out of scope,
// as in the paper).
const (
	// pfCodeRegion is the per-core code footprint in each PFlash bank.
	pfCodeRegion uint32 = 96 * 1024
	// pfConstRegion is the per-core constant-data footprint in PFlash
	// (Scenario 2).
	pfConstRegion uint32 = 32 * 1024
	// pfConstBase is the offset of constant pools inside each bank.
	pfConstBase uint32 = 512 * 1024
	// lmuUncachedSize is the shared non-cacheable LMU window.
	lmuUncachedSize uint32 = 8 * 1024
	// lmuCachedBase/Size is the cacheable LMU window (Scenario 2).
	lmuCachedBase uint32 = 16 * 1024
	lmuCachedSize uint32 = 8 * 1024
	lineSize      uint32 = 32
)

// pf0Code returns the i-th code line address of core's pf0 footprint
// (cacheable).
func pf0Code(core int, i uint32) uint32 {
	return platform.PFlash0Base + uint32(core)*pfCodeRegion + (i*lineSize)%pfCodeRegion
}

// pf1Code is the pf1 analogue of pf0Code.
func pf1Code(core int, i uint32) uint32 {
	return platform.PFlash1Base + uint32(core)*pfCodeRegion + (i*lineSize)%pfCodeRegion
}

// pfConst returns the i-th constant-pool word in the given bank.
func pfConst(core int, bank int, i uint32) uint32 {
	base := platform.PFlash0Base
	if bank == 1 {
		base = platform.PFlash1Base
	}
	return base + pfConstBase + uint32(core)*pfConstRegion + (i*lineSize)%pfConstRegion
}

// lmuShared returns the i-th word of the shared non-cacheable LMU buffer.
func lmuShared(i uint32) uint32 {
	return platform.Uncached(platform.LMUBase) + (i*4)%lmuUncachedSize
}

// lmuCached returns the i-th word of the cacheable LMU region, striding
// whole lines so reuse is controlled by the caller's index sequence.
func lmuCached(i uint32) uint32 {
	return platform.LMUBase + lmuCachedBase + (i*lineSize)%lmuCachedSize
}

// Scenario selects the deployment variant of the generated workloads,
// matching Figure 3 of the paper.
type Scenario int

const (
	// Scenario1: cacheable code in pf0/pf1, non-cacheable shared data in
	// the lmu.
	Scenario1 Scenario = 1
	// Scenario2: cacheable code in pf0/pf1, lmu data cacheable and
	// non-cacheable, constant cacheable data in pf0/pf1.
	Scenario2 Scenario = 2
)

// Validate checks the scenario tag.
func (s Scenario) Validate() error {
	if s != Scenario1 && s != Scenario2 {
		return fmt.Errorf("workload: unknown scenario %d", int(s))
	}
	return nil
}

// AppConfig sizes the control-loop application.
type AppConfig struct {
	// Scenario picks the deployment variant.
	Scenario Scenario
	// Core is the core the app will run on (selects its address carving).
	Core int
	// Iterations is the number of control-loop iterations.
	Iterations int
}

// ControlLoop generates the application under analysis: per iteration it
// acquires sensor signals (reads from the shared LMU buffer), runs the
// control computation (code partly in the local scratchpad, partly
// streaming through a PFlash footprint larger than the I-cache, so code
// fetches keep reaching the SRI), and updates the actuator state (writes
// to the shared LMU buffer). Scenario 2 additionally reads calibration
// constants from cacheable PFlash and filtered samples from cacheable LMU.
func ControlLoop(cfg AppConfig) (trace.Source, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if cfg.Iterations <= 0 {
		return nil, fmt.Errorf("workload: iterations must be positive, got %d", cfg.Iterations)
	}
	if cfg.Core < 0 || cfg.Core > 2 {
		return nil, fmt.Errorf("workload: core %d out of range", cfg.Core)
	}

	var codeCursor, constCursor, sampleCursor uint32
	step := func(it int, accs []trace.Access) []trace.Access {
		// Phase 1 — signal acquisition: six sensor words from the shared
		// non-cacheable LMU buffer.
		for i := 0; i < 6; i++ {
			accs = append(accs, trace.Access{Gap: 2, Kind: trace.Load, Addr: lmuShared(uint32(it*6 + i))})
		}

		// Phase 2 — computation. The loop body alternates
		// scratchpad-resident helpers with PFlash-resident control code.
		// The PFlash footprint (2 x 96 KiB walked line by line) exceeds
		// the 16 KiB I-cache, so its fetches miss persistently.
		for i := 0; i < 10; i++ {
			// Scratchpad code: three lines of local helpers.
			for j := 0; j < 3; j++ {
				accs = append(accs, trace.Access{Gap: 5, Kind: trace.Fetch,
					Addr: platform.PSPRAddr(cfg.Core, (uint32(i*3+j)*lineSize)%4096)})
			}
			// PFlash control code, alternating banks.
			addr := pf0Code(cfg.Core, codeCursor)
			if codeCursor%2 == 1 {
				addr = pf1Code(cfg.Core, codeCursor)
			}
			codeCursor++
			accs = append(accs, trace.Access{Gap: 3, Kind: trace.Fetch, Addr: addr})

			if cfg.Scenario == Scenario2 {
				// Calibration constants from cacheable PFlash; the pool
				// exceeds the 8 KiB D-cache, so reads keep missing.
				accs = append(accs, trace.Access{Gap: 2, Kind: trace.Load,
					Addr: pfConst(cfg.Core, i%2, constCursor)})
				constCursor++
				// Filtered samples from cacheable LMU: a small ring that
				// mostly hits, with a fresh line every few iterations.
				accs = append(accs, trace.Access{Gap: 2, Kind: trace.Load,
					Addr: lmuCached(sampleCursor / 4)})
				sampleCursor++
			}
			// Local working-set accesses in the data scratchpad.
			accs = append(accs, trace.Access{Gap: 1, Kind: trace.Load,
				Addr: platform.DSPRAddr(cfg.Core, (uint32(i)*64)%8192)})
		}

		// Phase 3 — status update: three actuator words to the shared
		// non-cacheable LMU buffer.
		for i := 0; i < 3; i++ {
			accs = append(accs, trace.Access{Gap: 2, Kind: trace.Store, Addr: lmuShared(uint32(it*3 + i + 4096))})
		}
		return accs
	}
	return trace.NewGen(cfg.Iterations, step, func() { codeCursor, constCursor, sampleCursor = 0, 0, 0 }), nil
}

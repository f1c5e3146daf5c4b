package workload

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/trace"
)

// This file adds two further automotive workload archetypes beyond the
// paper's control loop, so the models can be exercised on access-pattern
// shapes the evaluation section does not cover — in particular the data
// flash path (dfl), whose 43-cycle transactions dominate the fTC data
// term but never appear in the paper's two scenarios.

// EngineControlConfig sizes an engine-management archetype: a crank-
// synchronous interrupt burst (tight scratchpad code, a few shared-state
// updates) followed by a background segment that walks calibration maps
// stored in the data flash.
type EngineControlConfig struct {
	// Core is the core the task runs on.
	Core int
	// Revolutions is the number of crank periods to generate.
	Revolutions int
	// MapLookups is the number of data-flash calibration lookups per
	// revolution.
	MapLookups int
}

// EngineControl generates the archetype. Its defining property for the
// models: a significant dfl/da PTAC component, making l^{dfl,da} = 43 the
// binding latency rather than an fTC artefact.
func EngineControl(cfg EngineControlConfig) (trace.Source, error) {
	if cfg.Core < 0 || cfg.Core > 2 {
		return nil, fmt.Errorf("workload: core %d out of range", cfg.Core)
	}
	if cfg.Revolutions <= 0 {
		return nil, fmt.Errorf("workload: revolutions must be positive, got %d", cfg.Revolutions)
	}
	if cfg.MapLookups < 0 {
		return nil, fmt.Errorf("workload: negative map lookups %d", cfg.MapLookups)
	}

	var lookup uint32
	step := func(rev int, accs []trace.Access) []trace.Access {
		// Crank interrupt: scratchpad-resident handler, a sensor read and
		// an actuator write through the shared LMU buffer.
		for i := 0; i < 8; i++ {
			accs = append(accs, trace.Access{Gap: 2, Kind: trace.Fetch,
				Addr: platform.PSPRAddr(cfg.Core, uint32(i)*lineSize)})
		}
		accs = append(accs, trace.Access{Gap: 1, Kind: trace.Load, Addr: lmuShared(uint32(rev))})
		accs = append(accs, trace.Access{Gap: 1, Kind: trace.Store, Addr: lmuShared(uint32(rev) + 1024)})

		// Background segment: calibration-map lookups in the data flash
		// (non-cacheable by architecture, Table 3) interleaved with
		// PFlash-resident interpolation code.
		for i := 0; i < cfg.MapLookups; i++ {
			accs = append(accs, trace.Access{Gap: 6, Kind: trace.Load,
				Addr: platform.DFlashBase + (lookup*4)%platform.DFlashSize})
			lookup++
			accs = append(accs, trace.Access{Gap: 3, Kind: trace.Fetch, Addr: pf0Code(cfg.Core, lookup)})
		}
		return accs
	}
	return trace.NewGen(cfg.Revolutions, step, func() { lookup = 0 }), nil
}

// EngineControlDeployment is the deployment the archetype implies: code in
// pf0 (cacheable), working data in the lmu (non-cacheable), calibration
// maps in the data flash.
func EngineControlDeployment() platform.Deployment {
	return platform.Deployment{
		Code: []platform.Placement{{Target: platform.PF0, Cacheable: true}},
		Data: []platform.Placement{{Target: platform.LMU, Cacheable: false}, {Target: platform.DFL, Cacheable: false}},
	}
}

// ADASStreamConfig sizes a driver-assistance streaming archetype: frames
// of sensor samples are pulled from the shared LMU, filtered with
// coefficient tables in cacheable PFlash, and written back.
type ADASStreamConfig struct {
	// Core is the core the task runs on.
	Core int
	// Frames is the number of frames to process.
	Frames int
	// SamplesPerFrame is the size of each frame.
	SamplesPerFrame int
}

// ADASStream generates the archetype. Its defining property: data traffic
// dominated by the lmu with a cacheable pf coefficient stream — a
// Scenario-2-like mix at much higher data rate than the control loop.
func ADASStream(cfg ADASStreamConfig) (trace.Source, error) {
	if cfg.Core < 0 || cfg.Core > 2 {
		return nil, fmt.Errorf("workload: core %d out of range", cfg.Core)
	}
	if cfg.Frames <= 0 || cfg.SamplesPerFrame <= 0 {
		return nil, fmt.Errorf("workload: frames (%d) and samples (%d) must be positive", cfg.Frames, cfg.SamplesPerFrame)
	}

	var coeff uint32
	step := func(f int, accs []trace.Access) []trace.Access {
		for s := 0; s < cfg.SamplesPerFrame; s++ {
			idx := uint32(f*cfg.SamplesPerFrame + s)
			accs = append(accs, trace.Access{Gap: 1, Kind: trace.Load, Addr: lmuShared(idx)})
			if s%4 == 0 {
				// Fresh coefficient line from the cacheable pf pool.
				accs = append(accs, trace.Access{Gap: 1, Kind: trace.Load,
					Addr: pfConst(cfg.Core, f%2, coeff)})
				coeff++
			}
			// Filter kernel: scratchpad code with compute gaps.
			accs = append(accs, trace.Access{Gap: 4, Kind: trace.Fetch,
				Addr: platform.PSPRAddr(cfg.Core, (idx%64)*lineSize)})
			accs = append(accs, trace.Access{Gap: 1, Kind: trace.Store, Addr: lmuShared(idx + 4096)})
		}
		return accs
	}
	return trace.NewGen(cfg.Frames, step, func() { coeff = 0 }), nil
}

// ADASStreamDeployment is the deployment the archetype implies.
func ADASStreamDeployment() platform.Deployment {
	return platform.Deployment{
		Code: []platform.Placement{{Target: platform.PF0, Cacheable: true}, {Target: platform.PF1, Cacheable: true}},
		Data: []platform.Placement{{Target: platform.LMU, Cacheable: false}, {Target: platform.PF0, Cacheable: true}, {Target: platform.PF1, Cacheable: true}},
	}
}

package workload

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/trace"
)

// The builders below are the slice-building generators the streaming
// sources replaced, kept verbatim as the oracle of FuzzGeneratorIdentity:
// each materialises the whole trace in one loop. They assume a config the
// public constructor has already validated.

// referenceControlLoop is the materialising ControlLoop.
func referenceControlLoop(cfg AppConfig) []trace.Access {
	var accs []trace.Access
	var codeCursor, constCursor, sampleCursor uint32
	for it := 0; it < cfg.Iterations; it++ {
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
	}
	return accs
}

// referenceContender is the materialising Contender.
func referenceContender(cfg ContenderConfig) []trace.Access {
	gap, sriN, localN, err := cfg.Level.params()
	if err != nil {
		panic(err)
	}
	var accs []trace.Access
	var codeCursor, constCursor uint32
	for b := 0; b < cfg.Bursts; b++ {
		for i := 0; i < sriN; i++ {
			// Rotate the access pattern across bursts so that levels with
			// short bursts still mix code and data traffic.
			switch (b*sriN + i) % 4 {
			case 0, 1: // code fetch streaming through PFlash
				addr := pf0Code(cfg.Core, codeCursor)
				if codeCursor%2 == 1 {
					addr = pf1Code(cfg.Core, codeCursor)
				}
				codeCursor++
				accs = append(accs, trace.Access{Gap: gap, Kind: trace.Fetch, Addr: addr})
			case 2: // shared-buffer read
				accs = append(accs, trace.Access{Gap: gap, Kind: trace.Load, Addr: lmuShared(uint32(b*sriN + i))})
			case 3: // shared-buffer write, or a constant read in Scenario 2
				if cfg.Scenario == Scenario2 && b%2 == 1 {
					accs = append(accs, trace.Access{Gap: gap, Kind: trace.Load, Addr: pfConst(cfg.Core, b%2, constCursor)})
					constCursor++
				} else {
					accs = append(accs, trace.Access{Gap: gap, Kind: trace.Store, Addr: lmuShared(uint32(b*sriN + i))})
				}
			}
		}
		for i := 0; i < localN; i++ {
			accs = append(accs, trace.Access{Gap: 2, Kind: trace.Load,
				Addr: platform.DSPRAddr(cfg.Core, (uint32(b*localN+i)*4)%8192)})
		}
	}
	return accs
}

// referenceMicrobench is the materialising Microbench.
func referenceMicrobench(cfg MicrobenchConfig) []trace.Access {
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

	accs := make([]trace.Access, cfg.N)
	for i := range accs {
		accs[i] = trace.Access{Gap: cfg.Gap, Kind: kind, Addr: addr(uint32(i))}
	}
	return accs
}

// referenceEngineControl is the materialising EngineControl.
func referenceEngineControl(cfg EngineControlConfig) []trace.Access {
	var accs []trace.Access
	var lookup uint32
	for rev := 0; rev < cfg.Revolutions; rev++ {
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
	}
	return accs
}

// referenceADASStream is the materialising ADASStream.
func referenceADASStream(cfg ADASStreamConfig) []trace.Access {
	var accs []trace.Access
	var coeff uint32
	for f := 0; f < cfg.Frames; f++ {
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
	}
	return accs
}

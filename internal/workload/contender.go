package workload

import (
	"fmt"

	"repro/internal/platform"
	"repro/internal/trace"
)

// Level is a contender intensity: the paper's H-Load, M-Load and L-Load
// benchmarks generate a decreasing number of accesses to the SRI.
type Level int

const (
	// HLoad hammers the SRI back to back.
	HLoad Level = iota
	// MLoad interleaves SRI accesses with moderate local computation.
	MLoad
	// LLoad touches the SRI sparsely.
	LLoad
)

// String names the level as the paper does.
func (l Level) String() string {
	switch l {
	case HLoad:
		return "H-Load"
	case MLoad:
		return "M-Load"
	case LLoad:
		return "L-Load"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Levels lists all contender intensities in decreasing order of load.
var Levels = []Level{HLoad, MLoad, LLoad}

// AccessesPerBurst returns how many SRI accesses one burst of this level
// performs, so callers can size a contender to a target SRI request count.
func (l Level) AccessesPerBurst() int {
	_, sriN, _, err := l.params()
	if err != nil {
		panic(err)
	}
	return sriN
}

// LoadFraction is the contender's total SRI request count as a fraction of
// the analysed application's: the knob that makes H-, M- and L-Load put "an
// increasing number of accesses to the SRI" (§4.2). H-Load saturates the
// analysed task's window; M and L stay below its own demand.
func (l Level) LoadFraction() float64 {
	switch l {
	case HLoad:
		return 2.0
	case MLoad:
		return 0.75
	case LLoad:
		return 0.45
	default:
		panic(fmt.Sprintf("workload: unknown level %d", int(l)))
	}
}

// params returns (gap, sriPerBurst, localPerBurst): the compute gap between
// accesses, how many SRI accesses each burst performs, and how much local
// scratchpad work separates bursts.
func (l Level) params() (gap int64, sriPerBurst, localPerBurst int, err error) {
	switch l {
	case HLoad:
		return 0, 8, 1, nil
	case MLoad:
		return 4, 4, 6, nil
	case LLoad:
		return 12, 2, 16, nil
	default:
		return 0, 0, 0, fmt.Errorf("workload: unknown level %d", int(l))
	}
}

// ContenderConfig sizes a contender benchmark.
type ContenderConfig struct {
	// Level is the load intensity.
	Level Level
	// Scenario picks the deployment variant (contenders deploy like the
	// analysed application, §4.1).
	Scenario Scenario
	// Core is the core the contender runs on.
	Core int
	// Bursts is the number of access bursts; size it so the contender's
	// isolation run outlasts the analysed task's contended run, keeping
	// its isolation readings a valid bound on the load it generates
	// inside the analysis window.
	Bursts int
}

// Contender generates an H/M/L-Load benchmark: bursts of SRI traffic
// (code fetches streaming through PFlash plus data accesses to the shared
// LMU buffer, and for Scenario 2 also constant reads from PFlash)
// interleaved with local scratchpad work.
func Contender(cfg ContenderConfig) (trace.Source, error) {
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, err
	}
	if cfg.Bursts <= 0 {
		return nil, fmt.Errorf("workload: bursts must be positive, got %d", cfg.Bursts)
	}
	if cfg.Core < 0 || cfg.Core > 2 {
		return nil, fmt.Errorf("workload: core %d out of range", cfg.Core)
	}
	gap, sriN, localN, err := cfg.Level.params()
	if err != nil {
		return nil, err
	}

	var codeCursor, constCursor uint32
	step := func(b int, accs []trace.Access) []trace.Access {
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
		return accs
	}
	return trace.NewGen(cfg.Bursts, step, func() { codeCursor, constCursor = 0, 0 }), nil
}

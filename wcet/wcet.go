package wcet

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/rta"
)

// The SDK re-exports the analysis vocabulary as aliases so integrators
// never import internal packages: the types below are the same types the
// models consume, usable (composite literals, methods and all) through
// this public path.

// Readings is one task's isolation debug-counter measurement (the TC27x
// DSU counters: CCNT, PMEM_STALL, DMEM_STALL and the cache-miss counters).
type Readings = dsu.Readings

// LatencyTable is the platform characterisation of the paper's Table 2:
// per (target, operation) worst/best-case latencies and minimum stalls.
type LatencyTable = platform.LatencyTable

// AccessPath is one (SRI target, operation type) pair — the index of every
// per-target quantity in the models.
type AccessPath = platform.TargetOp

// PTAC maps access paths to request counts: the exact per-target access
// counts the ideal model consumes and templates pledge.
type PTAC = map[AccessPath]int64

// Scenario is a deployment configuration's tailoring (paper Table 5).
type Scenario = core.Scenario

// Template is a contender resource-usage contract (paper ref [10]): pledged
// per-path request budgets in place of measured readings.
type Template = core.Template

// StallMode selects how ILP stall-decomposition constraints treat the
// observed stall totals (budget vs exact, see core.StallMode).
type StallMode = core.StallMode

// Stall-mode values, re-exported.
const (
	StallBudget = core.StallBudget
	StallExact  = core.StallExact
)

// Estimate is a model's contention-aware WCET bound, with the WCET, Ratio
// and String methods of the underlying type.
type Estimate = core.Estimate

// RTATask is one periodic task for the response-time-analysis step.
type RTATask = rta.Task

// RTAResult is one task's response-time-analysis outcome.
type RTAResult = rta.Result

// TC27x returns the AURIX TC27x latency characterisation (Table 2), the
// default platform of every Analyzer.
func TC27x() LatencyTable { return platform.TC27xLatencies() }

// Scenario1 is the paper's first evaluation scenario: cacheable code in
// program flash, non-cacheable shared data in the LMU.
func Scenario1() Scenario { return core.Scenario1() }

// Scenario2 is the paper's second evaluation scenario: mixed cacheable and
// non-cacheable LMU data next to cacheable flash code and constants.
func Scenario2() Scenario { return core.Scenario2() }

// AccessPaths lists every legal (target, operation) pair of the platform,
// in stable order — the key space of PTAC maps and templates.
func AccessPaths() []AccessPath { return platform.AccessPairs() }

// ParseAccessPath parses the wire form of an access path ("pf0/co",
// "lmu/da", ...), the String form of AccessPath.
func ParseAccessPath(s string) (AccessPath, error) {
	for _, to := range platform.AccessPairs() {
		if to.String() == s {
			return to, nil
		}
	}
	return AccessPath{}, fmt.Errorf("wcet: unknown access path %q (want one of %v)", s, platform.AccessPairs())
}

// EnforcedContentionBound bounds the contention a contender can inflict
// when an RTOS-level enforcer suspends it at a stall-cycle quota — the
// contender-knowledge-free instrument next to the registry's models.
func EnforcedContentionBound(quota int64, lat *LatencyTable) int64 {
	return core.EnforcedContentionBound(quota, lat)
}

// Input is everything a contention model may observe for one analysis.
// Which fields a model requires depends on the model: the DSU-driven
// models (ftc, ilpPtac, ftcFsb) consume Contenders readings, templatePtac
// consumes Templates, and ideal consumes the exact PTACs.
type Input struct {
	// Analysed is the analysed task's isolation measurement.
	Analysed Readings
	// Contenders holds one isolation measurement per contender.
	Contenders []Readings
	// Templates holds contender resource-usage contracts, for models that
	// analyse against pledged budgets instead of measurements.
	Templates []Template
	// AnalysedPTAC and ContenderPTACs are exact per-target access counts,
	// for models (ideal) that assume full knowledge. Not obtainable from
	// the TC27x DSU; the simulator's ground truth can produce them.
	AnalysedPTAC   PTAC
	ContenderPTACs []PTAC
	// Latencies is the platform characterisation. Must be non-nil.
	Latencies *LatencyTable
	// Scenario is the deployment-scenario tailoring.
	Scenario Scenario
	// StallMode picks budget (default) vs exact stall decomposition for
	// ILP-based models.
	StallMode StallMode
	// DropContenderInfo removes the contenders' constraints from ILP-based
	// models, making their bounds fully time-composable (§3.5).
	DropContenderInfo bool
}

// Validate checks the parts of the input every model shares; model-specific
// requirements (templates present, PTACs present) are checked by the model.
func (in Input) Validate() error {
	if in.Latencies == nil {
		return fmt.Errorf("wcet: nil latency table")
	}
	if err := in.Latencies.Validate(); err != nil {
		return err
	}
	if err := in.Analysed.Validate(); err != nil {
		return fmt.Errorf("wcet: analysed readings: %w", err)
	}
	for i, b := range in.Contenders {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("wcet: contender %d readings: %w", i, err)
		}
	}
	for _, tp := range in.Templates {
		if err := tp.Validate(); err != nil {
			return err
		}
	}
	for to, n := range in.AnalysedPTAC {
		if !to.Valid() {
			return fmt.Errorf("wcet: analysed PTAC: illegal access path %s", to)
		}
		if n < 0 {
			return fmt.Errorf("wcet: analysed PTAC: negative count %d for %s", n, to)
		}
	}
	for i, p := range in.ContenderPTACs {
		for to, n := range p {
			if !to.Valid() {
				return fmt.Errorf("wcet: contender %d PTAC: illegal access path %s", i, to)
			}
			if n < 0 {
				return fmt.Errorf("wcet: contender %d PTAC: negative count %d for %s", i, n, to)
			}
		}
	}
	return in.Scenario.Validate()
}

// coreInput maps the SDK input onto the model layer's input.
func (in Input) coreInput() core.Input {
	return core.Input{A: in.Analysed, B: in.Contenders, Lat: in.Latencies, Scenario: in.Scenario}
}

// ptacOptions maps the SDK knobs onto the ILP model options.
func (in Input) ptacOptions() core.PTACOptions {
	return core.PTACOptions{
		StallMode:         in.StallMode,
		DropContenderInfo: in.DropContenderInfo,
	}
}

// Package core implements the paper's contribution: multicore-contention
// models for measurement-based timing analysis on the AURIX TC27x that
// compute contention-aware WCET estimates from observations of tasks
// running in isolation.
//
// Three models are provided, in increasing tightness:
//
//   - Ideal (Eq. 1): the reference upper bound assuming full knowledge of
//     both tasks' per-target access counts (PTAC). Not obtainable from the
//     TC27x DSU; used as a validation oracle against the simulator's
//     ground truth.
//
//   - FTC (Eq. 2-8): the fully time-composable model. It uses only the
//     analysed task's stall-cycle readings, over-approximates its SRI
//     request counts by dividing stalls by the minimum per-request stall
//     (Eq. 4), and charges every request the worst latency any contender
//     request could impose anywhere (Eq. 6-7). Valid against any
//     contender, and correspondingly pessimistic.
//
//   - ILPPTAC (Eq. 9-23): the partially time-composable ILP model. It
//     searches the worst-case per-target mapping of both tasks' requests
//     consistent with their isolation debug-counter readings, the
//     architectural placement constraints, and the deployment-scenario
//     tailoring of Table 5, maximizing the contention the analysed task
//     can suffer.
//
// All models consume only what a standard Debug Support Unit exposes
// (dsu.Readings) plus the platform latency characterisation of Table 2,
// matching the paper's industrial-viability requirement ➀, work purely
// from isolation observations ➁, and tailor to deployment scenarios ➂.
package core

import (
	"fmt"
	"math"

	"repro/internal/dsu"
	"repro/internal/platform"
)

// Input bundles what the models may observe: the isolation readings of the
// task under analysis τa, those of its contenders τb..., the platform
// latency table, and the deployment scenario both are configured under
// (the paper assumes deployment configurations apply equally to analysed
// task and contenders, §4.1).
type Input struct {
	// A is τa's isolation measurement.
	A dsu.Readings
	// B holds one isolation measurement per contender. The paper's
	// evaluation uses a single contender; the model extends to more by
	// summing per-contender worst cases (round-robin arbitration lets
	// each contender delay each τa request once).
	B []dsu.Readings
	// Lat is the platform characterisation (Table 2).
	Lat *platform.LatencyTable
	// Scenario is the deployment scenario used for ILP tailoring.
	Scenario Scenario
}

// Validate checks the input for use by any model.
func (in Input) Validate() error {
	if in.Lat == nil {
		return fmt.Errorf("core: nil latency table")
	}
	if err := in.Lat.Validate(); err != nil {
		return err
	}
	if err := in.A.Validate(); err != nil {
		return fmt.Errorf("core: analysed task readings: %w", err)
	}
	for i, b := range in.B {
		if err := b.Validate(); err != nil {
			return fmt.Errorf("core: contender %d readings: %w", i, err)
		}
	}
	if err := in.Scenario.Validate(); err != nil {
		return err
	}
	return nil
}

// Estimate is a model's contention-aware WCET estimate.
type Estimate struct {
	// Model names the producing model ("fTC", "ILP-PTAC", ...).
	Model string
	// IsolationCycles is τa's observed execution time in isolation.
	IsolationCycles int64
	// ContentionCycles is the bound on extra cycles due to multicore
	// contention (Δcont in the paper).
	ContentionCycles int64
	// Decomposition, when the model solves an ILP, holds the worst-case
	// per-target request mapping it found, keyed by variable name.
	Decomposition map[string]int64
	// Nodes, when the model solves an ILP, is the number of branch &
	// bound nodes the solve explored: the solve's cost driver, and an
	// exact count, so traces and benchmarks can report search effort that
	// machine noise cannot hide.
	Nodes int
	// WarmStarts, when the model solves an ILP, is how many of those
	// node relaxations resumed from a previous simplex basis instead of
	// rebuilding cold — the effectiveness signal of the PR 6 warm-start
	// path, surfaced per estimate so traces and benchmarks can report a
	// warm-start rate.
	WarmStarts int
}

// WCET returns the contention-aware WCET estimate in cycles.
func (e Estimate) WCET() int64 { return e.IsolationCycles + e.ContentionCycles }

// Ratio returns WCET / isolation time, the metric Figure 4 reports.
func (e Estimate) Ratio() float64 {
	if e.IsolationCycles == 0 {
		return math.Inf(1)
	}
	return float64(e.WCET()) / float64(e.IsolationCycles)
}

// String summarises the estimate.
func (e Estimate) String() string {
	return fmt.Sprintf("%s: iso=%d +cont=%d wcet=%d (x%.2f)",
		e.Model, e.IsolationCycles, e.ContentionCycles, e.WCET(), e.Ratio())
}

// AccessBounds computes n̂co and n̂da (Eq. 4): upper bounds on a task's SRI
// code and data request counts, derived by charging the whole observed
// stall total to requests of the cheapest kind (Eq. 2-3).
func AccessBounds(r dsu.Readings, lat *platform.LatencyTable) (nCo, nDa int64) {
	csCoMin := lat.MinStallFor(platform.Code)
	csDaMin := lat.MinStallFor(platform.Data)
	nCo = ceilDiv(r.PS, csCoMin)
	nDa = ceilDiv(r.DS, csDaMin)
	return nCo, nDa
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("core: non-positive divisor %d", b))
	}
	if a <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

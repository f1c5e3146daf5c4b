package experiments

import (
	"context"
	"fmt"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/tabstore"
	"repro/internal/workload"
	"repro/wcet"
)

// SweepPoint is one cell of a design-space exploration: a deployment
// scenario paired with a candidate co-runner load on a (possibly
// perturbed) platform characterisation, and the WCET verdicts each
// selected model gives for it.
type SweepPoint struct {
	Scenario workload.Scenario
	Level    workload.Level
	// Table names the stored latency-table version the cell was evaluated
	// on (a Grid.Tables ref); empty when the grid swept the base table
	// argument.
	Table string
	// Perturbation names the synthetic latency-table variant the cell was
	// evaluated on; empty for the unperturbed table.
	Perturbation string

	IsolationCycles int64

	// Estimates holds every selected model's bound, in grid model order
	// (canonical names).
	Estimates []wcet.ModelEstimate

	// ILP and FTC mirror the corresponding Estimates entries when the
	// grid selects those models (the default grid does); they are zero
	// otherwise. Kept for the paper's original two-model exploration
	// workflow and its Judge verdicts.
	ILP core.Estimate
	FTC core.Estimate
}

// Verdict classifies a point against an OEM time budget.
type Verdict int

const (
	// RejectedByBoth: even the tight bound misses the budget.
	RejectedByBoth Verdict = iota
	// NeedsContenderInfo: only the partially time-composable ILP bound
	// fits; the configuration is safe for the characterised contender
	// set but not against arbitrary co-runners.
	NeedsContenderInfo
	// FullyComposable: even the fTC bound fits; the configuration is
	// safe against any co-runner.
	FullyComposable
	// Unknown: the grid did not select both default models, so the
	// two-bound classification cannot be made.
	Unknown
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case RejectedByBoth:
		return "over budget"
	case NeedsContenderInfo:
		return "fits with contender knowledge"
	case FullyComposable:
		return "fits fully time-composable"
	case Unknown:
		return "unknown (grid lacks ftc/ilpPtac)"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Judge classifies the point against a cycle budget. It needs both
// default models' bounds; on a grid that deselected ftc or ilpPtac it
// returns Unknown rather than misreading a zero estimate as fitting.
func (p SweepPoint) Judge(budget int64) Verdict {
	if p.FTC.Model == "" || p.ILP.Model == "" {
		return Unknown
	}
	switch {
	case p.FTC.WCET() <= budget:
		return FullyComposable
	case p.ILP.WCET() <= budget:
		return NeedsContenderInfo
	default:
		return RejectedByBoth
	}
}

// Perturbation is one latency-table variant of a sweep grid: a named,
// deterministic transformation of the base characterisation. Perturbed
// sweeps answer the OEM question "does the verdict survive a platform
// respin / a pessimistic re-characterisation?" without touching silicon.
type Perturbation struct {
	// Name labels the variant in SweepPoint.Perturbation; the base
	// (identity) perturbation has the empty name.
	Name string
	// Apply maps the base table to the variant. A nil Apply is the
	// identity.
	Apply func(platform.LatencyTable) platform.LatencyTable
}

// apply resolves the nil-is-identity convention.
func (p Perturbation) apply(lat platform.LatencyTable) platform.LatencyTable {
	if p.Apply == nil {
		return lat
	}
	return p.Apply(lat)
}

// ScaleLatencies returns a perturbation that scales every legal latency
// figure by num/den (rounding down, floored at 1 cycle), preserving the
// table invariants Min <= Max and Stall <= Max.
func ScaleLatencies(name string, num, den int64) Perturbation {
	return Perturbation{Name: name, Apply: func(lat platform.LatencyTable) platform.LatencyTable {
		scale := func(v int64) int64 {
			if v = v * num / den; v < 1 {
				return 1
			}
			return v
		}
		for _, to := range platform.AccessPairs() {
			l := lat[to.Target][to.Op]
			l.Max, l.Min, l.Stall = scale(l.Max), scale(l.Min), scale(l.Stall)
			if l.Min > l.Max {
				l.Min = l.Max
			}
			if l.Stall > l.Max {
				l.Stall = l.Max
			}
			lat[to.Target][to.Op] = l
		}
		return lat
	}}
}

// Grid configures a multi-dimensional design-space sweep: every
// combination of deployment scenario, contender load and latency-table
// perturbation becomes one engine cell, and each cell evaluates the
// selected contention models. Zero-valued dimensions default to the
// paper's evaluation grid (both scenarios, all three loads, the
// unperturbed table, AppIterations iterations, the ILP-PTAC + fTC pair).
type Grid struct {
	Scenarios     []workload.Scenario
	Levels        []workload.Level
	Perturbations []Perturbation
	AppIterations int
	// Models selects which registered contention models every cell
	// evaluates (canonical names or aliases); empty selects
	// ["ilpPtac", "ftc"]. Any model in Registry is valid — a newly
	// registered model is sweepable with no change to this package.
	Models []string
	// Registry resolves Models; nil selects wcet.DefaultRegistry.
	Registry *wcet.Registry
	// Tables selects stored latency-table versions (refs or IDs resolved
	// through Store) as an additional, outermost grid dimension: the OEM
	// question "does the verdict survive the re-measured
	// characterisation?" asked against real calibration artifacts rather
	// than synthetic perturbations. Perturbations still apply, on top of
	// each selected table. Empty sweeps only the base table passed to
	// Sweep.
	Tables []string
	// Store resolves Tables; required when Tables is non-empty.
	Store *tabstore.Store
}

// withDefaults fills unset dimensions with the paper's grid.
func (g Grid) withDefaults() Grid {
	if len(g.Scenarios) == 0 {
		g.Scenarios = []workload.Scenario{workload.Scenario1, workload.Scenario2}
	}
	if len(g.Levels) == 0 {
		g.Levels = workload.Levels
	}
	if len(g.Perturbations) == 0 {
		g.Perturbations = []Perturbation{{}}
	}
	if g.AppIterations <= 0 {
		g.AppIterations = AppIterations
	}
	if len(g.Models) == 0 {
		g.Models = []string{"ilpPtac", "ftc"}
	}
	return g
}

// Size is the number of cells in the grid.
func (g Grid) Size() int {
	g = g.withDefaults()
	tables := len(g.Tables)
	if tables == 0 {
		tables = 1
	}
	return tables * len(g.Scenarios) * len(g.Levels) * len(g.Perturbations)
}

// Sweep explores every (deployment scenario, contender load) combination
// for the control-loop application on the default runner — the
// pre-integration exploration workflow §4.2 advertises ("a powerful and
// reactive method for OEM and SWPs to explore and evaluate different
// scheduling allocations and deployment scenarios ... before actual
// integration"). All numbers come from isolation measurements only;
// nothing is co-scheduled.
func Sweep(lat platform.LatencyTable, appIterations int) ([]SweepPoint, error) {
	// Grid treats a non-positive iteration count as "use the default";
	// this wrapper keeps its historical contract of rejecting it instead.
	if appIterations <= 0 {
		return nil, fmt.Errorf("experiments: app iterations must be positive, got %d", appIterations)
	}
	return defaultRunner.Sweep(context.Background(), lat, Grid{AppIterations: appIterations})
}

// Cell identifies one cell of a planned grid: its coordinates along every
// grid dimension, plus its index in stable grid order.
type Cell struct {
	Index        int
	Table        string
	Perturbation string
	Scenario     workload.Scenario
	Level        workload.Level
}

// plannedCell pairs a cell's coordinates with its fully resolved (stored
// table selected, perturbation applied) latency characterisation, an
// index into the plan's tables: cells of one table and perturbation
// share it.
type plannedCell struct {
	cell Cell
	lat  int
}

// SweepPlan is a validated grid lowered to an executable cell list: the
// stored-table dimension resolved, perturbations applied, and every cell
// enumerated in stable grid order (stored tables outermost, then
// perturbations, scenarios, levels innermost). The plan is what both the
// in-process Sweep and the server-side campaign-job subsystem execute —
// one implementation, so their results are identical cell for cell.
type SweepPlan struct {
	grid  Grid
	lats  []platform.LatencyTable
	cells []plannedCell
}

// Plan validates the grid against the base characterisation and
// enumerates its cells. A dangling table ref or contradictory dimension
// fails here, before any simulation runs (see Grid.Validate).
func (g Grid) Plan(lat platform.LatencyTable) (*SweepPlan, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	g = g.withDefaults()

	type tableVariant struct {
		name string
		lat  platform.LatencyTable
	}
	variants := []tableVariant{{name: "", lat: lat}}
	if len(g.Tables) > 0 {
		variants = variants[:0]
		for _, ref := range g.Tables {
			resolved, _, err := g.Store.Resolve(ref)
			if err != nil {
				// Validate resolved this ref moments ago; losing it here
				// means the store mutated underneath the plan.
				return nil, gridErr("tables", fmt.Sprintf("%q", ref), err)
			}
			variants = append(variants, tableVariant{name: ref, lat: resolved})
		}
	}

	p := &SweepPlan{
		grid:  g,
		lats:  make([]platform.LatencyTable, 0, len(variants)*len(g.Perturbations)),
		cells: make([]plannedCell, 0, g.Size()),
	}
	for _, tv := range variants {
		for _, pert := range g.Perturbations {
			lat := len(p.lats)
			p.lats = append(p.lats, pert.apply(tv.lat))
			for _, sc := range g.Scenarios {
				for _, lv := range g.Levels {
					p.cells = append(p.cells, plannedCell{
						cell: Cell{
							Index:        len(p.cells),
							Table:        tv.name,
							Perturbation: pert.Name,
							Scenario:     sc,
							Level:        lv,
						},
						lat: lat,
					})
				}
			}
		}
	}
	return p, nil
}

// Size is the number of cells in the plan.
func (p *SweepPlan) Size() int { return len(p.cells) }

// Cell returns the coordinates of cell i.
func (p *SweepPlan) Cell(i int) Cell { return p.cells[i].cell }

// RunCell evaluates one planned cell. Cells are independent and may run
// concurrently; cells of the same (table, perturbation, scenario) share
// the application's isolation baseline through the engine's memo cache.
func (r Runner) RunCell(ctx context.Context, p *SweepPlan, i int) (SweepPoint, error) {
	pc := p.cells[i]
	pt, err := r.sweepCell(ctx, p.lats[pc.lat], pc.cell.Scenario, pc.cell.Level, p.grid)
	if err != nil {
		return SweepPoint{}, fmt.Errorf("experiments: sweep table %q pert %q scenario %d %s: %w",
			pc.cell.Table, pc.cell.Perturbation, pc.cell.Scenario, pc.cell.Level, err)
	}
	pt.Table = pc.cell.Table
	pt.Perturbation = pc.cell.Perturbation
	return pt, nil
}

// Sweep runs the configured grid: one engine cell per (table,
// perturbation, scenario, level) combination, in stable grid order. It
// plans the grid (validating it before any simulation runs) and drains
// the cells through the engine pool.
func (r Runner) Sweep(ctx context.Context, lat platform.LatencyTable, grid Grid) ([]SweepPoint, error) {
	plan, err := grid.Plan(lat)
	if err != nil {
		return nil, err
	}
	jobs := make([]campaign.Job[SweepPoint], plan.Size())
	for i := range jobs {
		i := i
		jobs[i] = func(ctx context.Context) (SweepPoint, error) {
			return r.RunCell(ctx, plan, i)
		}
	}
	return campaign.Collect(ctx, r.eng, jobs)
}

// sweepCell evaluates one grid cell from isolation measurements only: the
// grid's model set, run through the SDK facade on the cell's (possibly
// perturbed) platform characterisation.
func (r Runner) sweepCell(ctx context.Context, lat platform.LatencyTable, sc workload.Scenario, lv workload.Level, grid Grid) (SweepPoint, error) {
	appR, err := r.appIsolation(ctx, lat, sc, grid.AppIterations)
	if err != nil {
		return SweepPoint{}, err
	}
	contR, err := r.contenderReadings(ctx, lat, sc, lv, contenderBursts(lat, lv, appR))
	if err != nil {
		return SweepPoint{}, err
	}
	an, err := analyzerFor(lat, grid.Registry)
	if err != nil {
		return SweepPoint{}, err
	}
	res, err := an.Analyze(ctx, wcet.Request{
		Analysed:   appR,
		Contenders: []dsu.Readings{contR},
		Scenario:   coreScenario(sc),
		Models:     grid.Models,
	})
	if err != nil {
		return SweepPoint{}, err
	}
	p := SweepPoint{
		Scenario:        sc,
		Level:           lv,
		IsolationCycles: appR.CCNT,
		Estimates:       res.Estimates,
	}
	if e, ok := res.Estimate("ilpPtac"); ok {
		p.ILP = e
	}
	if e, ok := res.Estimate("ftc"); ok {
		p.FTC = e
	}
	return p, nil
}

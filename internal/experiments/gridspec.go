package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/tabstore"
	"repro/internal/workload"
	"repro/wcet"
)

// Grid validation sentinels. Every pre-submission rejection wraps one of
// these inside a *GridError, so callers can switch on the failure class
// with errors.Is while the message still names the offending dimension.
var (
	// ErrEmptyDimension marks a dimension that was set to an explicitly
	// empty list: an empty grid has no cells, which is a contradiction,
	// not a default. Omit the field (nil) to select the paper's grid.
	ErrEmptyDimension = errors.New("explicitly empty: the grid would have no cells (omit the dimension to select the default)")
	// ErrBadValue marks a dimension entry outside its legal domain.
	ErrBadValue = errors.New("value outside the legal domain")
	// ErrDuplicate marks a dimension listing the same entry twice —
	// contradictory, because cells are keyed by their coordinates.
	ErrDuplicate = errors.New("duplicate entry")
	// ErrNoStore marks Grid.Tables set but Grid.Store is nil.
	ErrNoStore = errors.New("Grid.Tables set but Grid.Store is nil")
)

// GridError reports an invalid grid: the dimension at fault and the
// rejection class (one of the sentinels above, or a store resolution
// error for unknown table refs).
type GridError struct {
	// Dimension names the grid field at fault ("scenarios", "levels",
	// "perturbations", "appIterations", "models", "tables").
	Dimension string
	// Detail narrows the fault to an entry, when there is one.
	Detail string
	// Err is the rejection class.
	Err error
}

// Error formats the rejection with its dimension.
func (e *GridError) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("experiments: grid %s: %s: %v", e.Dimension, e.Detail, e.Err)
	}
	return fmt.Sprintf("experiments: grid %s: %v", e.Dimension, e.Err)
}

// Unwrap exposes the rejection class to errors.Is.
func (e *GridError) Unwrap() error { return e.Err }

// gridErr builds a *GridError.
func gridErr(dim, detail string, err error) error {
	return &GridError{Dimension: dim, Detail: detail, Err: err}
}

// maxAppIterations bounds the per-cell application length a grid may
// request; it exists so a wire-submitted campaign cannot ask one cell for
// an unbounded simulation. The paper's workload uses AppIterations (300).
const maxAppIterations = 100_000

// Validate rejects empty or contradictory grids with typed errors before
// any engine submission: explicitly empty dimensions (nil means "use the
// default"; a non-nil empty slice means a zero-cell grid), scenario or
// level values outside the platform's domain, negative or outsized
// iteration counts, unnamed or duplicate perturbations, unknown models,
// and table refs without a store or not resolvable in it.
func (g Grid) Validate() error {
	if g.Scenarios != nil && len(g.Scenarios) == 0 {
		return gridErr("scenarios", "", ErrEmptyDimension)
	}
	for _, sc := range g.Scenarios {
		if err := sc.Validate(); err != nil {
			return gridErr("scenarios", fmt.Sprintf("scenario %d", sc), ErrBadValue)
		}
	}
	if g.Levels != nil && len(g.Levels) == 0 {
		return gridErr("levels", "", ErrEmptyDimension)
	}
	for _, lv := range g.Levels {
		if !knownLevel(lv) {
			return gridErr("levels", lv.String(), ErrBadValue)
		}
	}
	if g.Perturbations != nil && len(g.Perturbations) == 0 {
		return gridErr("perturbations", "", ErrEmptyDimension)
	}
	seenPert := make(map[string]bool, len(g.Perturbations))
	for _, p := range g.Perturbations {
		if seenPert[p.Name] {
			return gridErr("perturbations", fmt.Sprintf("%q", p.Name), ErrDuplicate)
		}
		seenPert[p.Name] = true
	}
	if g.AppIterations < 0 || g.AppIterations > maxAppIterations {
		return gridErr("appIterations", fmt.Sprintf("%d", g.AppIterations), ErrBadValue)
	}
	if g.Models != nil && len(g.Models) == 0 {
		return gridErr("models", "", ErrEmptyDimension)
	}
	reg := g.Registry
	if reg == nil {
		reg = wcet.DefaultRegistry()
	}
	seenModel := make(map[string]bool, len(g.Models))
	for _, m := range g.Models {
		canon, err := reg.Canonical(m)
		if err != nil {
			return gridErr("models", fmt.Sprintf("%q", m), err)
		}
		if seenModel[canon] {
			return gridErr("models", fmt.Sprintf("%q", m), ErrDuplicate)
		}
		seenModel[canon] = true
	}
	if g.Tables != nil && len(g.Tables) == 0 {
		return gridErr("tables", "", ErrEmptyDimension)
	}
	if len(g.Tables) > 0 && g.Store == nil {
		return gridErr("tables", "", ErrNoStore)
	}
	seenTable := make(map[string]bool, len(g.Tables))
	for _, ref := range g.Tables {
		if seenTable[ref] {
			return gridErr("tables", fmt.Sprintf("%q", ref), ErrDuplicate)
		}
		seenTable[ref] = true
		if _, _, err := g.Store.Resolve(ref); err != nil {
			return gridErr("tables", fmt.Sprintf("%q", ref), err)
		}
	}
	return nil
}

// knownLevel reports whether lv is one of the platform's contender loads.
func knownLevel(lv workload.Level) bool {
	for _, known := range workload.Levels {
		if lv == known {
			return true
		}
	}
	return false
}

// levelNames maps the wire names (Level.String values) back to levels.
var levelNames = func() map[string]workload.Level {
	m := make(map[string]workload.Level, len(workload.Levels))
	for _, lv := range workload.Levels {
		m[lv.String()] = lv
	}
	return m
}()

// ParseLevel resolves a contender-load wire name ("H-Load", "M-Load",
// "L-Load") to its Level.
func ParseLevel(name string) (workload.Level, error) {
	lv, ok := levelNames[name]
	if !ok {
		return 0, fmt.Errorf("unknown level %q", name)
	}
	return lv, nil
}

// PerturbationSpec is the wire form of one synthetic latency-table
// variant: a named uniform scaling of every latency figure.
type PerturbationSpec struct {
	// Name labels the variant in results; required unless the spec is the
	// identity (zero ScalePercent).
	Name string `json:"name,omitempty"`
	// ScalePercent scales every legal latency figure to this percentage
	// of its base value: 110 = +10%, 90 = -10%. 0 (or 100) is the
	// identity. Legal range is 1..1000.
	ScalePercent int64 `json:"scalePercent,omitempty"`
}

// GridSpec is the wire form of a sweep grid — the body of a campaign-job
// submission. Omitted dimensions select the paper's evaluation grid
// exactly like the zero Grid; explicitly empty dimensions are rejected.
type GridSpec struct {
	// Scenarios selects deployment scenarios by number (1 or 2).
	Scenarios []int `json:"scenarios,omitempty"`
	// Levels selects contender loads by wire name ("H-Load", "M-Load",
	// "L-Load").
	Levels []string `json:"levels,omitempty"`
	// Perturbations selects synthetic latency-table variants.
	Perturbations []PerturbationSpec `json:"perturbations,omitempty"`
	// AppIterations is the analysed application's iteration count per
	// cell; 0 selects the paper's default.
	AppIterations int `json:"appIterations,omitempty"`
	// Models selects contention models by registry name or alias.
	Models []string `json:"models,omitempty"`
	// Tables selects stored latency-table versions (refs or content
	// addresses) as the outermost grid dimension.
	Tables []string `json:"tables,omitempty"`
}

// Compile validates the spec and lowers it to a Grid bound to the given
// store and registry. Every rejection is a *GridError; nothing is
// submitted to an engine. Compile is the campaign-job analogue of
// V2Request.Prepare: all validation happens here, pre-admission.
func (s GridSpec) Compile(store *tabstore.Store, reg *wcet.Registry) (Grid, error) {
	g := Grid{
		AppIterations: s.AppIterations,
		Registry:      reg,
		Store:         store,
	}
	if s.Scenarios != nil {
		g.Scenarios = make([]workload.Scenario, 0, len(s.Scenarios))
		for _, n := range s.Scenarios {
			g.Scenarios = append(g.Scenarios, workload.Scenario(n))
		}
	}
	if s.Levels != nil {
		g.Levels = make([]workload.Level, 0, len(s.Levels))
		for _, name := range s.Levels {
			lv, err := ParseLevel(name)
			if err != nil {
				return Grid{}, gridErr("levels", fmt.Sprintf("%q", name), ErrBadValue)
			}
			g.Levels = append(g.Levels, lv)
		}
	}
	if s.Perturbations != nil {
		g.Perturbations = make([]Perturbation, 0, len(s.Perturbations))
		for _, p := range s.Perturbations {
			switch {
			case p.ScalePercent == 0 || p.ScalePercent == 100:
				// Identity: keep the name (empty = the base table).
				g.Perturbations = append(g.Perturbations, Perturbation{Name: p.Name})
			case p.ScalePercent < 1 || p.ScalePercent > 1000:
				return Grid{}, gridErr("perturbations", fmt.Sprintf("scalePercent %d", p.ScalePercent), ErrBadValue)
			case p.Name == "":
				return Grid{}, gridErr("perturbations", "scaling variant without a name", ErrBadValue)
			default:
				g.Perturbations = append(g.Perturbations, ScaleLatencies(p.Name, p.ScalePercent, 100))
			}
		}
	}
	if s.Models != nil {
		// make, not append: appending zero elements to nil yields nil,
		// which would silently turn an explicitly-empty dimension (a
		// zero-cell grid, rejected) into "use the default".
		g.Models = make([]string, len(s.Models))
		copy(g.Models, s.Models)
	}
	if s.Tables != nil {
		g.Tables = make([]string, len(s.Tables))
		copy(g.Tables, s.Tables)
	}
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// DecodeGridSpec parses a wire grid spec strictly: unknown fields are
// rejected, exactly like the serving layer's request decoding.
func DecodeGridSpec(data []byte) (GridSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s GridSpec
	if err := dec.Decode(&s); err != nil {
		return GridSpec{}, fmt.Errorf("experiments: grid spec: %w", err)
	}
	// A body holding multiple JSON values is malformed.
	if dec.More() {
		return GridSpec{}, fmt.Errorf("experiments: grid spec: trailing data after JSON value")
	}
	return s, nil
}

// EstimateJSON is the deterministic wire form of one model estimate in a
// sweep artifact: the bound itself, without solver-effort diagnostics
// (node and warm-start counts vary run to run under the parallel solver,
// and a resumed campaign must be byte-identical to an uninterrupted one).
type EstimateJSON struct {
	Name             string  `json:"name"`
	Model            string  `json:"model"`
	IsolationCycles  int64   `json:"isolationCycles"`
	ContentionCycles int64   `json:"contentionCycles"`
	WCETCycles       int64   `json:"wcetCycles"`
	Ratio            float64 `json:"ratio"`
}

// PointJSON is the deterministic wire form of one sweep cell result — the
// unit the campaign-job subsystem checkpoints and the element of a sweep
// artifact.
type PointJSON struct {
	Table           string         `json:"table,omitempty"`
	Perturbation    string         `json:"perturbation,omitempty"`
	Scenario        int            `json:"scenario"`
	Level           string         `json:"level"`
	IsolationCycles int64          `json:"isolationCycles"`
	Estimates       []EstimateJSON `json:"estimates"`
}

// Wire lowers a sweep point to its artifact form.
func (p SweepPoint) Wire() PointJSON {
	w := PointJSON{
		Table:           p.Table,
		Perturbation:    p.Perturbation,
		Scenario:        int(p.Scenario),
		Level:           p.Level.String(),
		IsolationCycles: p.IsolationCycles,
		Estimates:       make([]EstimateJSON, 0, len(p.Estimates)),
	}
	for _, e := range p.Estimates {
		w.Estimates = append(w.Estimates, EstimateJSON{
			Name:             e.Name,
			Model:            e.Model,
			IsolationCycles:  e.IsolationCycles,
			ContentionCycles: e.ContentionCycles,
			WCETCycles:       e.WCET(),
			Ratio:            e.Ratio(),
		})
	}
	return w
}

// Artifact is a completed sweep's wire form: one point per grid cell, in
// stable grid order.
type Artifact struct {
	Points []PointJSON `json:"points"`
}

// WirePoints lowers a full sweep to artifact form.
func WirePoints(points []SweepPoint) []PointJSON {
	out := make([]PointJSON, len(points))
	for i, p := range points {
		out[i] = p.Wire()
	}
	return out
}

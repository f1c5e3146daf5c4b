package wcet

import (
	"context"
	"crypto/sha256"
	"fmt"
	"slices"
	"time"

	"repro/internal/rta"
	"repro/internal/telemetry"
)

// Process-wide analyzer telemetry on the default registry, exposed by
// wcetd's GET /metrics. All Analyzer instances share these series: the
// per-model label is the interesting axis, not which facade instance
// evaluated it.
var (
	mEstimates = telemetry.Default().CounterVec("analyzer_estimates_total",
		"Model evaluations completed, by canonical model name (cache hits included).", "model")
	mSolveSeconds = telemetry.Default().HistogramVec("analyzer_solve_seconds",
		"Wall time of actual model solves, by canonical model name (cache hits excluded).", "model", nil)
	mEstCacheHits = telemetry.Default().Counter("analyzer_cache_hits_total",
		"Estimate-cache hits across all Analyzers.")
	mEstCacheMisses = telemetry.Default().Counter("analyzer_cache_misses_total",
		"Estimate-cache misses (each one is a real solve) across all Analyzers.")
)

// Analyzer is the SDK facade: it fixes a registry, platform, scenario,
// default model set and optional estimate cache once, and Analyze then
// composes validation, in-order model evaluation and an optional
// response-time-analysis verdict per request. An Analyzer is immutable
// after construction and safe for concurrent use; it starts no goroutine,
// so a request's solves run wherever its caller runs them.
type Analyzer struct {
	reg    *Registry
	lat    LatencyTable
	store  TableStore
	sc     Scenario
	models []string // canonical, resolved at construction
	cache  *estimateCache
}

// TableStore resolves named latency-table references — the SDK's view of
// a versioned table store (internal/tabstore implements it). ResolveTable
// maps a reference (a named ref like "tc27x/default" or an immutable
// table ID) to the table and its content-addressed identity. It must be
// safe for concurrent use; refs may be retargeted between calls, which is
// exactly how a serving deployment hot-swaps characterisations.
type TableStore interface {
	ResolveTable(ref string) (LatencyTable, string, error)
}

// Option configures an Analyzer.
type Option func(*Analyzer) error

// WithRegistry selects the model registry; the default is the shared
// DefaultRegistry.
func WithRegistry(reg *Registry) Option {
	return func(a *Analyzer) error {
		if reg == nil {
			return fmt.Errorf("wcet: WithRegistry(nil)")
		}
		a.reg = reg
		return nil
	}
}

// WithPlatform selects a named built-in platform characterisation.
// Currently "tc27x" (the default) is defined; the option exists so new
// platforms are a name, not an API change.
func WithPlatform(name string) Option {
	return func(a *Analyzer) error {
		switch name {
		case "tc27x":
			a.lat = TC27x()
			return nil
		default:
			return fmt.Errorf("wcet: unknown platform %q (known: tc27x)", name)
		}
	}
}

// WithLatencyTable supplies a custom platform characterisation — a
// re-measured silicon revision, a perturbed what-if table, another SoC.
func WithLatencyTable(lat LatencyTable) Option {
	return func(a *Analyzer) error {
		if err := lat.Validate(); err != nil {
			return err
		}
		a.lat = lat
		return nil
	}
}

// WithTableStore attaches a versioned latency-table store: requests may
// then select a characterisation per call via Request.TableRef (a named
// ref or an immutable table ID) instead of analysing under the Analyzer's
// fixed table. The estimate cache content-addresses the table, so hits
// stay correct across table versions.
func WithTableStore(ts TableStore) Option {
	return func(a *Analyzer) error {
		if ts == nil {
			return fmt.Errorf("wcet: WithTableStore(nil)")
		}
		a.store = ts
		return nil
	}
}

// WithScenario fixes the deployment-scenario tailoring; the default is
// Scenario1. Requests may override it per call.
func WithScenario(sc Scenario) Option {
	return func(a *Analyzer) error {
		if err := sc.Validate(); err != nil {
			return err
		}
		a.sc = sc
		return nil
	}
}

// WithModels fixes the default model set (canonical names or aliases),
// evaluated in the given order; alias-equivalent duplicates collapse to
// one entry. Requests may override it per call.
func WithModels(names ...string) Option {
	return func(a *Analyzer) error {
		if len(names) == 0 {
			return fmt.Errorf("wcet: WithModels needs at least one model")
		}
		a.models = append([]string(nil), names...)
		return nil
	}
}

// WithCache gives the Analyzer an LRU of the given capacity over
// (model, input) estimates, so identical cells across repeated analyses
// cost a map lookup instead of a solve.
func WithCache(entries int) Option {
	return func(a *Analyzer) error {
		if entries <= 0 {
			return fmt.Errorf("wcet: WithCache needs a positive capacity, got %d", entries)
		}
		a.cache = newEstimateCache(entries)
		return nil
	}
}

// WithConcurrency has no effect. Analyze evaluates a request's models in
// the calling goroutine, so a caller bounds solver parallelism by how
// many Analyze calls it runs at once.
//
// Deprecated: drop the option; it is kept only so existing callers build.
func WithConcurrency(int) Option {
	return func(*Analyzer) error { return nil }
}

// NewAnalyzer builds an Analyzer. Without options it analyses on the
// TC27x under Scenario 1 with the paper's two headline models, fTC and
// ILP-PTAC — the historical behaviour of the v1 service and CLI.
func NewAnalyzer(opts ...Option) (*Analyzer, error) {
	a := &Analyzer{
		lat:    TC27x(),
		sc:     Scenario1(),
		models: []string{"ftc", "ilpPtac"},
	}
	for _, opt := range opts {
		if err := opt(a); err != nil {
			return nil, err
		}
	}
	if a.reg == nil {
		a.reg = DefaultRegistry()
	}
	// Resolve the default model set now so a misconfigured Analyzer fails
	// at construction, not on the first request.
	canonical, err := a.canonicalModels(a.models)
	if err != nil {
		return nil, err
	}
	a.models = canonical
	return a, nil
}

// MustNewAnalyzer is NewAnalyzer for known-good option sets.
func MustNewAnalyzer(opts ...Option) *Analyzer {
	a, err := NewAnalyzer(opts...)
	if err != nil {
		panic(err)
	}
	return a
}

// Registry exposes the analyzer's registry (for listing models).
func (a *Analyzer) Registry() *Registry { return a.reg }

// Models returns the default model set, canonical, in evaluation order.
func (a *Analyzer) Models() []string { return append([]string(nil), a.models...) }

// CacheStats reports the estimate cache's cumulative hits and misses
// (zeros when no cache was configured).
func (a *Analyzer) CacheStats() (hits, misses int64) {
	if a.cache == nil {
		return 0, 0
	}
	return a.cache.stats()
}

// canonicalModels resolves names to canonical form, preserving order and
// dropping duplicates. A list already canonical and duplicate-free — a
// sweep's model set, cell after cell — comes back as it is, unallocated;
// callers only read it.
func (a *Analyzer) canonicalModels(names []string) ([]string, error) {
	if a.canonicalAsGiven(names) {
		return names, nil
	}
	out := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		canon, err := a.reg.Canonical(n)
		if err != nil {
			return nil, err
		}
		if !seen[canon] {
			seen[canon] = true
			out = append(out, canon)
		}
	}
	return out, nil
}

// canonicalAsGiven reports whether every name is canonical and listed
// once.
func (a *Analyzer) canonicalAsGiven(names []string) bool {
	for i, n := range names {
		if canon, err := a.reg.Canonical(n); err != nil || canon != n || slices.Contains(names[:i], n) {
			return false
		}
	}
	return true
}

// Request is one analysis: what was measured (or pledged), which models to
// run, and the optional schedulability question.
type Request struct {
	// Analysed is the analysed task's isolation measurement.
	Analysed Readings
	// Contenders holds the contenders' isolation measurements.
	Contenders []Readings
	// Templates holds contender resource-usage contracts (templatePtac).
	Templates []Template
	// AnalysedPTAC / ContenderPTACs are exact per-target access counts
	// (ideal).
	AnalysedPTAC   PTAC
	ContenderPTACs []PTAC
	// Scenario overrides the Analyzer's deployment scenario when non-zero
	// (any name, placement or flag set); leave it zero to analyse under
	// the Analyzer's default.
	Scenario Scenario
	// TableRef selects the platform characterisation from the Analyzer's
	// table store when non-empty — a named ref ("tc27x/default") or an
	// immutable table ID. Requires WithTableStore; leave it empty to
	// analyse under the Analyzer's fixed table.
	TableRef string
	// StallMode and DropContenderInfo tune the ILP-based models.
	StallMode         StallMode
	DropContenderInfo bool
	// Models overrides the Analyzer's model set when non-empty (canonical
	// names or aliases, evaluated in order). Alias-equivalent duplicates
	// collapse to one entry, so Estimates can be shorter than Models —
	// look results up with Result.Estimate rather than zipping by index.
	// (The /v2 wire API rejects duplicates instead.)
	Models []string
	// RTA, when non-nil, additionally asks for a response-time-analysis
	// verdict using one computed bound as the analysed task's WCET.
	RTA *RTASpec
}

// RTASpec asks for a fixed-priority schedulability verdict on the analysed
// task's core.
type RTASpec struct {
	// Model selects which computed bound becomes the analysed task's WCET
	// (canonical name or alias; empty selects ilpPtac). It must be among
	// the request's models.
	Model string
	// Task is the analysed task's timing parameters; its WCET field is
	// filled from the selected model's bound. An empty Name becomes
	// "analysed".
	Task RTATask
	// Others are the co-resident tasks with their own contention-aware
	// WCETs.
	Others []RTATask
}

// ModelEstimate is one model's bound, labelled with its canonical registry
// name (Estimate.Model keeps the model's display name).
type ModelEstimate struct {
	// Name is the canonical registry name ("ftc", "ilpPtac", ...).
	Name string
	Estimate
}

// RTAVerdict is the schedulability outcome for the analysed task's core.
type RTAVerdict struct {
	// Model is the canonical name of the bound used as the analysed
	// task's WCET; WCETCycles is its value.
	Model      string
	WCETCycles int64
	// Utilization is Σ C_i / T_i over the whole task set.
	Utilization float64
	// Schedulable reports whether every task meets its deadline.
	Schedulable bool
	Results     []RTAResult
}

// Result is one analysis outcome: the requested models' bounds in request
// order, plus the RTA verdict when one was asked for.
type Result struct {
	Estimates []ModelEstimate
	RTA       *RTAVerdict
}

// Estimate returns the bound a model produced in this result, looked up by
// canonical name.
func (r *Result) Estimate(canonical string) (Estimate, bool) {
	for _, e := range r.Estimates {
		if e.Name == canonical {
			return e.Estimate, true
		}
	}
	return Estimate{}, false
}

// Analyze validates the request, evaluates the selected models one after
// another in model order in the calling goroutine, and (when asked)
// derives the RTA verdict from the selected bound. The first model error
// fails the call, labelled with the model's name; later models are not
// evaluated.
func (a *Analyzer) Analyze(ctx context.Context, req Request) (*Result, error) {
	names := a.models
	if len(req.Models) > 0 {
		var err error
		if names, err = a.canonicalModels(req.Models); err != nil {
			return nil, err
		}
	}
	sc := a.sc
	if !scenarioIsZero(req.Scenario) {
		sc = req.Scenario
	}
	lat := &a.lat
	if req.TableRef != "" {
		if a.store == nil {
			return nil, fmt.Errorf("wcet: request selects table %q but the Analyzer has no table store (use WithTableStore)", req.TableRef)
		}
		resolved, _, err := a.store.ResolveTable(req.TableRef)
		if err != nil {
			return nil, err
		}
		if err := resolved.Validate(); err != nil {
			return nil, fmt.Errorf("wcet: table %q: %w", req.TableRef, err)
		}
		lat = &resolved
	}
	in := Input{
		Analysed:          req.Analysed,
		Contenders:        req.Contenders,
		Templates:         req.Templates,
		AnalysedPTAC:      req.AnalysedPTAC,
		ContenderPTACs:    req.ContenderPTACs,
		Latencies:         lat,
		Scenario:          sc,
		StallMode:         req.StallMode,
		DropContenderInfo: req.DropContenderInfo,
	}
	_, vspan := telemetry.StartSpan(ctx, "validate")
	err := in.Validate()
	vspan.End()
	if err != nil {
		return nil, err
	}

	estimates, err := a.evaluate(ctx, names, in)
	if err != nil {
		return nil, err
	}
	res := &Result{Estimates: estimates}
	if req.RTA != nil {
		_, rspan := telemetry.StartSpan(ctx, "rta")
		verdict, err := a.analyzeRTA(*req.RTA, res)
		rspan.End()
		if err != nil {
			return nil, err
		}
		res.RTA = verdict
	}
	return res, nil
}

// scenarioIsZero reports whether a request carries no scenario override:
// an unnamed scenario with a custom deployment or flag still counts as
// one — silently swapping in the default would bound the wrong system.
func scenarioIsZero(sc Scenario) bool {
	return sc.Name == "" && len(sc.Deploy.Code) == 0 && len(sc.Deploy.Data) == 0 &&
		!sc.CodeCountExact && !sc.CacheableDataFloor
}

// evaluate runs the models in order. The input is rendered and hashed
// once; each model's estimate-cache entry is probed before it solves, and
// every solved estimate is cached.
func (a *Analyzer) evaluate(ctx context.Context, names []string, in Input) ([]ModelEstimate, error) {
	var digest [sha256.Size]byte
	if a.cache != nil {
		digest = inputDigest(in)
	}
	out := make([]ModelEstimate, len(names))
	for i, name := range names {
		key := estimateKey{model: name, input: digest}
		if a.cache != nil {
			if est, ok := a.cache.get(key); ok {
				mEstCacheHits.Inc()
				_, span := modelSpan(ctx, name)
				out[i] = served(span, name, est, true)
				continue
			}
			mEstCacheMisses.Inc()
		}
		model, err := a.reg.Resolve(name)
		if err != nil {
			// The set was canonicalized against the same registry; a miss
			// here means the model was unregistered mid-flight.
			return nil, err
		}
		mctx, span := modelSpan(ctx, name)
		est, err := a.timedEstimate(mctx, name, model, in)
		if err != nil {
			span.End()
			return nil, fmt.Errorf("wcet: model %s: %w", name, err)
		}
		if a.cache != nil {
			a.cache.put(key, est)
		}
		out[i] = served(span, name, est, false)
	}
	return out, nil
}

// modelSpan opens a model's "model:<name>" span, building the name only
// when ctx carries a trace.
func modelSpan(ctx context.Context, name string) (context.Context, *telemetry.Span) {
	if !telemetry.Active(ctx) {
		return ctx, nil
	}
	return telemetry.StartSpan(ctx, "model:"+name)
}

// served closes a model's span with its cost attributes, counts the
// estimate and labels it with the model's canonical name.
func served(span *telemetry.Span, name string, est Estimate, cached bool) ModelEstimate {
	if span != nil {
		span.SetAttr("cached", cached)
		span.SetAttr("nodes", est.Nodes)
		span.SetAttr("warmStarts", est.WarmStarts)
		span.End()
	}
	mEstimates.With(name).Inc()
	return ModelEstimate{Name: name, Estimate: est}
}

// timedEstimate runs the real solve under the per-model latency
// histogram (cache hits never reach it, so the series measures solver
// work, not lookup time).
func (a *Analyzer) timedEstimate(ctx context.Context, name string, model ContentionModel, in Input) (Estimate, error) {
	start := time.Now()
	est, err := model.Estimate(ctx, in)
	mSolveSeconds.With(name).Observe(time.Since(start))
	return est, err
}

// analyzeRTA runs response-time analysis with the analysed task's WCET
// taken from the selected model's bound.
func (a *Analyzer) analyzeRTA(spec RTASpec, res *Result) (*RTAVerdict, error) {
	canon, err := a.reg.Canonical(spec.Model)
	if err != nil {
		return nil, fmt.Errorf("rta.model: %w", err)
	}
	est, ok := res.Estimate(canon)
	if !ok {
		return nil, fmt.Errorf("wcet: rta.model %s is not among the requested models", canon)
	}
	wcet := est.WCET()

	analysed := spec.Task
	if analysed.Name == "" {
		analysed.Name = "analysed"
	}
	analysed.WCET = wcet
	tasks := make([]RTATask, 0, 1+len(spec.Others))
	tasks = append(tasks, analysed)
	tasks = append(tasks, spec.Others...)
	results, err := rta.Analyze(tasks)
	if err != nil {
		return nil, fmt.Errorf("rta: %w", err)
	}

	verdict := &RTAVerdict{
		Model:       canon,
		WCETCycles:  wcet,
		Utilization: rta.Utilization(tasks),
		Schedulable: true,
		Results:     results,
	}
	for _, r := range results {
		if !r.Schedulable {
			verdict.Schedulable = false
		}
	}
	return verdict, nil
}

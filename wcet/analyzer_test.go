package wcet

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
)

var (
	testAnalysed  = Readings{CCNT: 157800, PS: 18000, DS: 27000, PM: 3000}
	testContender = Readings{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000}
)

func testRequest() Request {
	return Request{Analysed: testAnalysed, Contenders: []Readings{testContender}}
}

func mustPath(t *testing.T, s string) AccessPath {
	t.Helper()
	p, err := ParseAccessPath(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAnalyzerMatchesCore pins the facade to the underlying free
// functions: the default Analyzer must produce exactly core.FTC and
// core.ILPPTAC for the same input.
func TestAnalyzerMatchesCore(t *testing.T) {
	an := MustNewAnalyzer()
	res, err := an.Analyze(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 2 || res.Estimates[0].Name != "ftc" || res.Estimates[1].Name != "ilpPtac" {
		t.Fatalf("default model set = %+v, want [ftc ilpPtac]", res.Estimates)
	}

	lat := TC27x()
	in := core.Input{A: testAnalysed, B: []Readings{testContender}, Lat: &lat, Scenario: core.Scenario1()}
	wantFTC, err := core.FTC(in)
	if err != nil {
		t.Fatal(err)
	}
	wantILP, err := core.ILPPTAC(in, core.PTACOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0].WCET() != wantFTC.WCET() || res.Estimates[0].Model != wantFTC.Model {
		t.Errorf("ftc via analyzer = %v, want %v", res.Estimates[0].Estimate, wantFTC)
	}
	if res.Estimates[1].WCET() != wantILP.WCET() || res.Estimates[1].Model != wantILP.Model {
		t.Errorf("ilpPtac via analyzer = %v, want %v", res.Estimates[1].Estimate, wantILP)
	}
}

func TestAnalyzerModelSelection(t *testing.T) {
	an := MustNewAnalyzer()

	// Per-request override, alias spelling, order preserved, dupes folded.
	req := testRequest()
	req.Models = []string{"fTC-FSB", "ftc", "ftcFsb"}
	res, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 2 || res.Estimates[0].Name != "ftcFsb" || res.Estimates[1].Name != "ftc" {
		t.Fatalf("estimates = %+v, want [ftcFsb ftc]", res.Estimates)
	}
	if _, ok := res.Estimate("ftcFsb"); !ok {
		t.Error("Result.Estimate(ftcFsb) not found")
	}

	// The FSB collapse can never beat the crossbar-aware bound.
	fsb, _ := res.Estimate("ftcFsb")
	ftc, _ := res.Estimate("ftc")
	if fsb.WCET() < ftc.WCET() {
		t.Errorf("fTC-FSB bound %d below crossbar fTC bound %d", fsb.WCET(), ftc.WCET())
	}

	// Unknown model errors list the registry.
	req.Models = []string{"bogus"}
	if _, err := an.Analyze(context.Background(), req); err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Errorf("unknown model error = %v, want registered-names listing", err)
	}
}

func TestAnalyzerTemplateAndIdealModels(t *testing.T) {
	an := MustNewAnalyzer()

	// templatePtac: pledge budgets instead of readings.
	req := Request{
		Analysed: testAnalysed,
		Templates: []Template{{
			Name: "pledged-corunner",
			MaxRequests: PTAC{
				mustPath(t, "pf0/co"): 400,
				mustPath(t, "lmu/da"): 900,
			},
		}},
		Models: []string{"templatePtac"},
	}
	res, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0].ContentionCycles <= 0 {
		t.Errorf("templatePtac contention = %d, want positive", res.Estimates[0].ContentionCycles)
	}

	// Missing templates is a model error labelled with the model name.
	req.Templates = nil
	if _, err := an.Analyze(context.Background(), req); err == nil || !strings.Contains(err.Error(), "templatePtac") {
		t.Errorf("templatePtac without templates: err = %v", err)
	}

	// ideal: exact PTACs for both sides.
	ideal := Request{
		Analysed:       testAnalysed,
		AnalysedPTAC:   PTAC{mustPath(t, "pf0/co"): 1000, mustPath(t, "lmu/da"): 2000},
		ContenderPTACs: []PTAC{{mustPath(t, "pf0/co"): 300, mustPath(t, "lmu/da"): 700}},
		Models:         []string{"ideal"},
	}
	ires, err := an.Analyze(context.Background(), ideal)
	if err != nil {
		t.Fatal(err)
	}
	if ires.Estimates[0].ContentionCycles <= 0 {
		t.Errorf("ideal contention = %d, want positive", ires.Estimates[0].ContentionCycles)
	}
	ideal.AnalysedPTAC = nil
	if _, err := an.Analyze(context.Background(), ideal); err == nil || !strings.Contains(err.Error(), "ideal") {
		t.Errorf("ideal without PTACs: err = %v", err)
	}
}

func TestAnalyzerRTAVerdict(t *testing.T) {
	an := MustNewAnalyzer()
	req := testRequest()
	req.RTA = &RTASpec{
		Task:   RTATask{Period: 2_000_000, Priority: 2},
		Others: []RTATask{{Name: "cruiseCtl", WCET: 50_000, Period: 500_000, Priority: 1}},
	}
	res, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	v := res.RTA
	if v == nil {
		t.Fatal("no RTA verdict")
	}
	ilp, _ := res.Estimate("ilpPtac")
	if v.Model != "ilpPtac" || v.WCETCycles != ilp.WCET() {
		t.Errorf("verdict model/WCET = %s/%d, want ilpPtac/%d", v.Model, v.WCETCycles, ilp.WCET())
	}
	if len(v.Results) != 2 || v.Results[0].Task != "analysed" {
		t.Errorf("verdict results = %+v", v.Results)
	}

	// Selecting a bound that was not computed must fail loudly.
	req.Models = []string{"ftc"}
	req.RTA.Model = "ilpPtac"
	if _, err := an.Analyze(context.Background(), req); err == nil || !strings.Contains(err.Error(), "not among") {
		t.Errorf("rta model outside computed set: err = %v", err)
	}
}

func TestAnalyzerScenarioOverride(t *testing.T) {
	an := MustNewAnalyzer(WithScenario(Scenario1()))
	req := Request{
		Analysed:   Readings{CCNT: 301000, PS: 40000, DS: 51000, PM: 6100, DMC: 1200, DMD: 400},
		Contenders: []Readings{testContender},
		Scenario:   Scenario2(),
		Models:     []string{"ilpPtac"},
	}
	res2, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Scenario = Scenario{}
	res1, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Estimates[0].ContentionCycles == res2.Estimates[0].ContentionCycles {
		t.Error("scenario override had no effect on the ILP bound")
	}
}

// TestAnalyzerUnnamedScenarioOverride asserts a per-request scenario with
// custom content but no Name still overrides the Analyzer's default — a
// silently dropped override would bound the wrong system.
func TestAnalyzerUnnamedScenarioOverride(t *testing.T) {
	an := MustNewAnalyzer(WithScenario(Scenario1()))
	req := Request{
		Analysed:   Readings{CCNT: 301000, PS: 40000, DS: 51000, PM: 6100, DMC: 1200, DMD: 400},
		Contenders: []Readings{testContender},
		Models:     []string{"ilpPtac"},
	}
	req.Scenario = Scenario2()
	named, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Scenario = Scenario2()
	req.Scenario.Name = ""
	unnamed, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if unnamed.Estimates[0].ContentionCycles != named.Estimates[0].ContentionCycles {
		t.Errorf("unnamed scenario-2 bound %d != named scenario-2 bound %d",
			unnamed.Estimates[0].ContentionCycles, named.Estimates[0].ContentionCycles)
	}
	req.Scenario = Scenario{}
	def, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if def.Estimates[0].ContentionCycles == named.Estimates[0].ContentionCycles {
		t.Error("scenario-2 override indistinguishable from the scenario-1 default; readings too symmetric for this test")
	}
}

// TestAnalyzerCacheScenarioContent asserts the estimate cache keys the
// scenario by content, not label: two same-named scenarios with different
// tailoring must not share an entry.
func TestAnalyzerCacheScenarioContent(t *testing.T) {
	an := MustNewAnalyzer(WithCache(16), WithModels("ilpPtac"))
	req := Request{
		Analysed:   Readings{CCNT: 301000, PS: 40000, DS: 51000, PM: 6100, DMC: 1200, DMD: 400},
		Contenders: []Readings{testContender},
		Scenario:   Scenario1(),
	}
	res1, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	twin := Scenario2()
	twin.Name = Scenario1().Name
	req.Scenario = twin
	res2, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Estimates[0].ContentionCycles == res2.Estimates[0].ContentionCycles {
		t.Errorf("same-named scenario with different tailoring returned the cached bound %d",
			res1.Estimates[0].ContentionCycles)
	}
}

func TestAnalyzerCache(t *testing.T) {
	an := MustNewAnalyzer(WithCache(16), WithModels("ftc"))
	for i := 0; i < 3; i++ {
		if _, err := an.Analyze(context.Background(), testRequest()); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := an.CacheStats()
	if misses != 1 || hits != 2 {
		t.Errorf("cache hits/misses = %d/%d, want 2/1", hits, misses)
	}
}

// TestAnalyzerConcurrent runs many Analyze calls in parallel on a shared
// cached Analyzer; under -race this is the facade's thread-safety proof.
func TestAnalyzerConcurrent(t *testing.T) {
	an := MustNewAnalyzer(WithCache(32))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				res, err := an.Analyze(context.Background(), testRequest())
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Estimates) != 2 {
					t.Errorf("estimates = %+v", res.Estimates)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestAnalyzeEvaluatesModelsInOrder: Analyze runs a request's models one
// after another in request order (the shared slice is appended without a
// lock, so -race also proves no two run at once), and the first failing
// model fails the call before any later model runs.
func TestAnalyzeEvaluatesModelsInOrder(t *testing.T) {
	boom := errors.New("boom")
	var ran []string
	reg := NewRegistry()
	for _, name := range []string{"first", "second", "third", "broken", "after"} {
		reg.MustRegister(NewModel(name, func(_ context.Context, in Input) (Estimate, error) {
			ran = append(ran, name)
			if name == "broken" {
				return Estimate{}, boom
			}
			return Estimate{Model: name, IsolationCycles: in.Analysed.CCNT}, nil
		}))
	}
	an := MustNewAnalyzer(WithRegistry(reg), WithModels("first"))
	req := testRequest()
	req.Models = []string{"third", "first", "second", "broken", "after"}
	_, err := an.Analyze(context.Background(), req)
	if !errors.Is(err, boom) || !strings.HasPrefix(err.Error(), "wcet: model broken: ") {
		t.Fatalf("err = %v, want wcet: model broken: boom", err)
	}
	if got, want := strings.Join(ran, ","), "third,first,second,broken"; got != want {
		t.Errorf("models ran as %s, want %s", got, want)
	}
}

// TestToyModelEndToEnd is the SDK half of the acceptance criterion:
// registering a new ContentionModel makes it runnable through the facade
// with zero edits anywhere else.
func TestToyModelEndToEnd(t *testing.T) {
	reg := NewDefaultRegistry()
	if err := reg.Register(toyModel("toy", 4242), "TOY"); err != nil {
		t.Fatal(err)
	}
	an := MustNewAnalyzer(WithRegistry(reg), WithModels("TOY", "ftc"))
	res, err := an.Analyze(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Estimates[0].Name != "toy" || res.Estimates[0].ContentionCycles != 4242 {
		t.Errorf("toy estimate = %+v", res.Estimates[0])
	}
	// The toy bound can even drive the RTA step.
	req := testRequest()
	req.Models = []string{"toy"}
	req.RTA = &RTASpec{Model: "toy", Task: RTATask{Period: 2_000_000, Priority: 1}}
	rres, err := an.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rres.RTA.Model != "toy" || rres.RTA.WCETCycles != testAnalysed.CCNT+4242 {
		t.Errorf("toy RTA verdict = %+v", rres.RTA)
	}
}

// TestCanonicalModelsAsGiven: a canonical, duplicate-free model list is
// used as it is, without allocating; any other list is resolved into a
// new one, and the Analyzer never aliases its WithModels argument.
func TestCanonicalModelsAsGiven(t *testing.T) {
	models := []string{"ilpPtac", "ftc"}
	an := MustNewAnalyzer(WithModels(models...))
	models[0] = "bogus"
	if _, err := an.Analyze(context.Background(), testRequest()); err != nil {
		t.Fatalf("Analyzer followed a caller's edit of its WithModels slice: %v", err)
	}

	given := []string{"ilpPtac", "ftc"}
	got, err := an.canonicalModels(given)
	if err != nil || &got[0] != &given[0] {
		t.Fatalf("canonical list %v came back as a new list %v (%v)", given, got, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { an.canonicalModels(given) }); allocs != 0 {
		t.Errorf("canonical list: %.0f allocs, want 0", allocs)
	}
	for _, names := range [][]string{{"ftc", "ftc"}, {"FTC"}} {
		got, err := an.canonicalModels(names)
		if err != nil || len(got) != 1 || got[0] != "ftc" || &got[0] == &names[0] {
			t.Errorf("canonicalModels(%v) = %v, %v; want a new [ftc]", names, got, err)
		}
	}
}

package experiments

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tricore"
	"repro/internal/workload"
)

var lat = platform.TC27xLatencies()

// TestTable2CalibrationMatchesPlatform is the Table 2 reproduction: the
// microbenchmark methodology on the simulator must recover exactly the
// latency and minimum-stall characterisation the platform is built from.
func TestTable2CalibrationMatchesPlatform(t *testing.T) {
	rows, err := CalibrateTable2(lat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != int(platform.NumTargets) {
		t.Fatalf("%d rows, want %d", len(rows), platform.NumTargets)
	}
	for _, r := range rows {
		for _, op := range platform.Ops {
			measL, measCs := r.LCo, r.CsCo
			if op == platform.Data {
				measL, measCs = r.LDa, r.CsDa
			}
			if !platform.CanAccess(r.Target, op) {
				if measL != -1 || measCs != -1 {
					t.Errorf("%s/%s: illegal path has measurements", r.Target, op)
				}
				continue
			}
			l, err := lat.Lookup(r.Target, op)
			if err != nil {
				t.Fatal(err)
			}
			if measL != l.Max {
				t.Errorf("%s/%s: measured latency %d, Table 2 says %d", r.Target, op, measL, l.Max)
			}
			if measCs != l.Stall {
				t.Errorf("%s/%s: measured stall %d, Table 2 says %d", r.Target, op, measCs, l.Stall)
			}
			measMin := r.LMinCo
			if op == platform.Data {
				measMin = r.LMinDa
			}
			if measMin != l.Min {
				t.Errorf("%s/%s: measured min latency %d, Table 2 says %d", r.Target, op, measMin, l.Min)
			}
		}
	}
}

// TestTable6Shape checks the qualitative properties the paper reads off
// Table 6: dirty misses are zero under both scenarios (cacheable data is
// constant data), Scenario 2 shows data-cache misses where Scenario 1 has
// none, and code misses are non-zero in both.
func TestTable6Shape(t *testing.T) {
	for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
		app, cont, err := Table6Readings(lat, sc)
		if err != nil {
			t.Fatalf("scenario %d: %v", sc, err)
		}
		for name, r := range map[string]dsu.Readings{"app": app, "contender": cont} {
			if err := r.Validate(); err != nil {
				t.Errorf("scenario %d %s: %v", sc, name, err)
			}
			if r.DMD != 0 {
				t.Errorf("scenario %d %s: DMD = %d, want 0 (cacheable data is constant)", sc, name, r.DMD)
			}
			if r.PM == 0 || r.PS == 0 || r.DS == 0 {
				t.Errorf("scenario %d %s: degenerate readings %v", sc, name, r)
			}
			if sc == workload.Scenario1 && r.DMC != 0 {
				t.Errorf("scenario 1 %s: DMC = %d, want 0 (no cacheable data)", name, r.DMC)
			}
			if sc == workload.Scenario2 && r.DMC == 0 {
				t.Errorf("scenario 2 %s: DMC = 0, want cacheable-data misses", name)
			}
		}
	}
}

// TestFigure4Soundness is the paper's headline soundness claim: "In all
// experiments our model predictions upperbound the observed multicore
// execution time."
func TestFigure4Soundness(t *testing.T) {
	rows, err := Figure4(lat)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 (2 scenarios x 3 loads)", len(rows))
	}
	for _, r := range rows {
		if r.ObservedCycles < r.IsolationCycles {
			t.Errorf("Sc%d %s: contended run faster than isolation", r.Scenario, r.Level)
		}
		if r.ILP.WCET() < r.ObservedCycles {
			t.Errorf("Sc%d %s: ILP-PTAC WCET %d below observed %d", r.Scenario, r.Level, r.ILP.WCET(), r.ObservedCycles)
		}
		if r.FTC.WCET() < r.ObservedCycles {
			t.Errorf("Sc%d %s: fTC WCET %d below observed %d", r.Scenario, r.Level, r.FTC.WCET(), r.ObservedCycles)
		}
		// The observed slowdown is exactly the arbitration wait; the
		// contention bounds must cover it.
		if got := r.ObservedCycles - r.IsolationCycles; got != r.TrueContention {
			t.Errorf("Sc%d %s: slowdown %d != true wait %d", r.Scenario, r.Level, got, r.TrueContention)
		}
		if r.ILP.ContentionCycles < r.TrueContention {
			t.Errorf("Sc%d %s: ILP contention bound %d below truth %d", r.Scenario, r.Level, r.ILP.ContentionCycles, r.TrueContention)
		}
	}
}

// TestFigure4Tightness checks the comparative claims of §4.2: the ILP
// bound is tighter than fTC everywhere (its contention below half of
// fTC's), it adapts to contender load monotonically, and fTC is load-
// insensitive.
func TestFigure4Tightness(t *testing.T) {
	rows, err := Figure4(lat)
	if err != nil {
		t.Fatal(err)
	}
	byScenario := map[workload.Scenario][]Figure4Row{}
	for _, r := range rows {
		byScenario[r.Scenario] = append(byScenario[r.Scenario], r)
	}
	for sc, rs := range byScenario {
		if len(rs) != 3 {
			t.Fatalf("scenario %d has %d rows", sc, len(rs))
		}
		// Levels come in H, M, L order.
		h, m, l := rs[0], rs[1], rs[2]
		for _, r := range rs {
			if 2*r.ILP.ContentionCycles >= r.FTC.ContentionCycles {
				t.Errorf("Sc%d %s: ILP contention %d not below half of fTC %d",
					sc, r.Level, r.ILP.ContentionCycles, r.FTC.ContentionCycles)
			}
		}
		if !(h.ILP.ContentionCycles > m.ILP.ContentionCycles && m.ILP.ContentionCycles > l.ILP.ContentionCycles) {
			t.Errorf("Sc%d: ILP bound not monotone in load: H=%d M=%d L=%d",
				sc, h.ILP.ContentionCycles, m.ILP.ContentionCycles, l.ILP.ContentionCycles)
		}
		if h.FTC.ContentionCycles != m.FTC.ContentionCycles || m.FTC.ContentionCycles != l.FTC.ContentionCycles {
			t.Errorf("Sc%d: fTC bound varies with load: %d/%d/%d",
				sc, h.FTC.ContentionCycles, m.FTC.ContentionCycles, l.FTC.ContentionCycles)
		}
	}
}

// TestFigure4MatchesPaperShape compares the measured ratios against the
// published ranges: each reproduced value must land within a modest
// tolerance of the paper's (the substrate is a simulator, not the authors'
// silicon, so shapes — not exact numbers — are the bar; see EXPERIMENTS.md).
func TestFigure4MatchesPaperShape(t *testing.T) {
	rows, err := Figure4(lat)
	if err != nil {
		t.Fatal(err)
	}
	const tolerance = 0.15 // relative
	within := func(got, want float64) bool {
		d := got - want
		if d < 0 {
			d = -d
		}
		return d/want <= tolerance
	}
	for _, ref := range PaperFigure4Values {
		var h, l, ftc float64
		for _, r := range rows {
			if r.Scenario != ref.Scenario {
				continue
			}
			ftc = r.FTC.Ratio()
			switch r.Level {
			case workload.HLoad:
				h = r.ILP.Ratio()
			case workload.LLoad:
				l = r.ILP.Ratio()
			}
		}
		if !within(h, ref.ILPHigh) {
			t.Errorf("Sc%d: ILP high %0.2f vs paper %0.2f beyond tolerance", ref.Scenario, h, ref.ILPHigh)
		}
		if !within(l, ref.ILPLow) {
			t.Errorf("Sc%d: ILP low %0.2f vs paper %0.2f beyond tolerance", ref.Scenario, l, ref.ILPLow)
		}
		if !within(ftc, ref.FTC) {
			t.Errorf("Sc%d: fTC %0.2f vs paper %0.2f beyond tolerance", ref.Scenario, ftc, ref.FTC)
		}
	}
}

// TestIdealOracleBracketsModels: with the simulator's ground-truth PTACs,
// the ideal model (Eq. 1) must cover the true contention while staying at
// or below the DSU-driven ILP bound — the information gap the paper
// quantifies.
func TestIdealOracleBracketsModels(t *testing.T) {
	for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
		appSrc, err := workload.ControlLoop(workload.AppConfig{Scenario: sc, Core: AnalysedCore, Iterations: AppIterations})
		if err != nil {
			t.Fatal(err)
		}
		isoRes, err := sim.RunIsolation(lat, AnalysedCore, sim.Task{Kind: tricore.TC16P, Src: appSrc}, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}
		appR := isoRes.Readings[AnalysedCore]
		contSrc, contR, err := sizeContender(lat, sc, workload.HLoad, appR)
		if err != nil {
			t.Fatal(err)
		}

		appSrc.Reset()
		multi, err := sim.Run(lat, map[int]sim.Task{
			AnalysedCore:  {Kind: tricore.TC16P, Src: appSrc},
			ContenderCore: {Kind: tricore.TC16P, Src: contSrc},
		}, AnalysedCore, sim.Config{})
		if err != nil {
			t.Fatal(err)
		}

		// Ground-truth PTACs of both tasks as they ran together.
		ideal := core.Ideal(multi.PTAC[AnalysedCore], multi.PTAC[ContenderCore], &lat)
		truth := multi.TotalWait(AnalysedCore)
		if ideal < truth {
			t.Errorf("scenario %d: Ideal %d below true contention %d", sc, ideal, truth)
		}

		ilpEst, err := core.ILPPTAC(core.Input{
			A: appR, B: []dsu.Readings{contR}, Lat: &lat, Scenario: coreScenario(sc),
		}, core.PTACOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if ilpEst.ContentionCycles < ideal {
			t.Errorf("scenario %d: ILP bound %d below ideal-with-full-information %d", sc, ilpEst.ContentionCycles, ideal)
		}
	}
}

func TestPaperReferenceValues(t *testing.T) {
	if len(PaperFigure4Values) != 2 {
		t.Fatal("expected two scenario references")
	}
	for _, ref := range PaperFigure4Values {
		if !(1 < ref.ILPLow && ref.ILPLow < ref.ILPHigh && ref.ILPHigh < ref.FTC) {
			t.Errorf("reference ordering broken: %+v", ref)
		}
	}
}

func TestCoreScenarioMapping(t *testing.T) {
	if coreScenario(workload.Scenario1).Name != "scenario1" {
		t.Error("scenario 1 mapping")
	}
	if coreScenario(workload.Scenario2).Name != "scenario2" {
		t.Error("scenario 2 mapping")
	}
	if !coreScenario(workload.Scenario2).CacheableDataFloor {
		t.Error("scenario 2 must carry the data floor")
	}
}

// TestSharedScenariosUnmutated pins that the scenarios every cell shares
// come out of a sweep over both of them as they were built.
func TestSharedScenariosUnmutated(t *testing.T) {
	if _, err := NewRunner(nil).Sweep(context.Background(), lat, Grid{AppIterations: 60}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(coreScenarios, [2]core.Scenario{core.Scenario1(), core.Scenario2()}) {
		t.Fatalf("a cell mutated the shared scenarios: %+v", coreScenarios)
	}
}

func TestEstimateModelsSeparate(t *testing.T) {
	rows, err := Figure4(lat)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.FTC.Model != "fTC" || r.ILP.Model != "ILP-PTAC" {
			t.Errorf("model labels: %q, %q", r.FTC.Model, r.ILP.Model)
		}
		if r.ILP.IsolationCycles != r.IsolationCycles {
			t.Errorf("isolation cycles disagree: %d vs %d", r.ILP.IsolationCycles, r.IsolationCycles)
		}
	}
}

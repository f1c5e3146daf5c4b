package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/tricore"
	"repro/internal/workload"
)

// sameOutcome fails t unless the two runs agree on every Result field and
// on the error.
func sameOutcome(t *testing.T, name string, got Result, gotErr error, want Result, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result diverged from the reference\n got %+v\nwant %+v", name, got, want)
	}
}

// taskBuilder builds a fresh task set per call: a trace source runs once,
// and the engine and the reference each need their own.
type taskBuilder func(t *testing.T) map[int]Task

// checkRun compares Run against the reference stepper.
func checkRun(t *testing.T, name string, build taskBuilder, analysed int, cfg Config) Result {
	t.Helper()
	got, gotErr := Run(platform.TC27xLatencies(), build(t), analysed, cfg)
	want, wantErr := referenceRun(platform.TC27xLatencies(), build(t), analysed, cfg)
	sameOutcome(t, name, got, gotErr, want, wantErr)
	return got
}

// checkWarm compares RunIsolationWarm against the reference's private
// two-pass loop.
func checkWarm(t *testing.T, name string, build taskBuilder, coreIdx int, cfg Config) {
	t.Helper()
	lat := platform.TC27xLatencies()
	got, gotErr := RunIsolationWarm(lat, coreIdx, build(t)[coreIdx], cfg)
	want, wantErr := referenceRunIsolationWarm(lat, coreIdx, build(t)[coreIdx], cfg)
	sameOutcome(t, name, got, gotErr, want, wantErr)
}

func appTask(sc workload.Scenario, iterations int) taskBuilder {
	return func(t *testing.T) map[int]Task {
		src, err := workload.ControlLoop(workload.AppConfig{Scenario: sc, Core: 1, Iterations: iterations})
		if err != nil {
			t.Fatal(err)
		}
		return map[int]Task{1: {Kind: tricore.TC16P, Src: src}}
	}
}

func contenderSrc(t *testing.T, sc workload.Scenario, lv workload.Level, coreIdx, bursts int) trace.Source {
	src, err := workload.Contender(workload.ContenderConfig{Level: lv, Scenario: sc, Core: coreIdx, Bursts: bursts})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// figure4Cell builds the co-run of one Figure 4 cell: the analysed
// application on core 1 and a contender on core 2, sized from the
// application's isolation readings as the experiment sizes it.
func figure4Cell(sc workload.Scenario, lv workload.Level, iterations, bursts int) taskBuilder {
	return func(t *testing.T) map[int]Task {
		tasks := appTask(sc, iterations)(t)
		tasks[2] = Task{Kind: tricore.TC16P, Src: contenderSrc(t, sc, lv, 2, bursts)}
		return tasks
	}
}

// TestRunMatchesReferenceOnFigure4 replays every Figure 4 cell at the
// experiment's scale — application isolation, contender isolation and
// co-run — through both loops.
func TestRunMatchesReferenceOnFigure4(t *testing.T) {
	const iterations = 300 // experiments.AppIterations
	lat := platform.TC27xLatencies()
	for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
		app := checkRun(t, fmt.Sprintf("sc%d app", sc), appTask(sc, iterations), 1, Config{})
		nCo, nDa := core.AccessBounds(app.Readings[1], &lat)
		for _, lv := range workload.Levels {
			bursts := int(lv.LoadFraction()*float64(nCo+nDa))/lv.AccessesPerBurst() + 1
			name := fmt.Sprintf("sc%d %s", sc, lv)
			checkRun(t, name+" contender", func(t *testing.T) map[int]Task {
				return map[int]Task{2: {Kind: tricore.TC16P, Src: contenderSrc(t, sc, lv, 2, bursts)}}
			}, 2, Config{})
			checkRun(t, name+" co-run", figure4Cell(sc, lv, iterations, bursts), 1, Config{})
		}
	}
}

// TestRunMatchesReferenceOnVariants covers the configuration space the
// Figure 4 cells leave at default: a third core with a TC1.6E, flash
// prefetch, service jitter, SRI priority classes and stall budgets.
func TestRunMatchesReferenceOnVariants(t *testing.T) {
	cell := figure4Cell(workload.Scenario2, workload.MLoad, 40, 60)
	threeCore := func(t *testing.T) map[int]Task {
		tasks := cell(t)
		tasks[0] = Task{Kind: tricore.TC16E, Src: trace.NewRepeat(contenderSrc(t, workload.Scenario2, workload.HLoad, 0, 5), 0)}
		return tasks
	}
	for _, tc := range []struct {
		name  string
		build taskBuilder
		cfg   Config
	}{
		{"default", cell, Config{}},
		{"three cores", threeCore, Config{}},
		{"prefetch", threeCore, Config{FlashPrefetch: true}},
		{"jitter", threeCore, Config{JitterSeed: 0x9e3779b97f4a7c15}},
		{"analysed outranks", threeCore, Config{SRIPriorities: map[int]int{1: 2, 2: 1}}},
		{"analysed outranked", threeCore, Config{SRIPriorities: map[int]int{0: 1, 2: 1}}},
		{"zero quota", threeCore, Config{StallBudgets: map[int]int64{0: 0, 2: 0}}},
		{"quotas", threeCore, Config{StallBudgets: map[int]int64{0: 40, 2: 300}}},
		{"quota on absent core", cell, Config{StallBudgets: map[int]int64{0: 0}}},
		{"analysed suspended", threeCore, Config{MaxCycles: 30_000, StallBudgets: map[int]int64{1: 100}}},
		{"deadline", threeCore, Config{MaxCycles: 5_000}},
		{"everything", threeCore, Config{JitterSeed: 7, SRIPriorities: map[int]int{2: 1}, StallBudgets: map[int]int64{0: 500}}},
	} {
		t.Run(tc.name, func(t *testing.T) { checkRun(t, tc.name, tc.build, 1, tc.cfg) })
	}
}

// TestRunIsolationWarmMatchesReference checks the warm protocol against
// the loop it replaced, on the configurations that loop honoured.
func TestRunIsolationWarmMatchesReference(t *testing.T) {
	for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
		for _, cfg := range []Config{{}, {FlashPrefetch: true}, {MaxCycles: 20_000}} {
			checkWarm(t, fmt.Sprintf("sc%d %+v", sc, cfg), appTask(sc, 40), 1, cfg)
		}
	}
}

// fuzzRegions are the address regions a fuzzed access can hit, per
// access class: fetches never reach the data flash.
var fuzzRegions = [2][7]func(coreIdx int, off uint32) uint32{
	{ // fetch
		func(c int, off uint32) uint32 { return platform.PSPRAddr(c, off%platform.ScratchpadSize) },
		func(_ int, off uint32) uint32 { return platform.PFlash0Base + off },
		func(_ int, off uint32) uint32 { return platform.Uncached(platform.PFlash0Base + off) },
		func(_ int, off uint32) uint32 { return platform.PFlash1Base + off },
		func(_ int, off uint32) uint32 { return platform.Uncached(platform.PFlash1Base + off) },
		func(_ int, off uint32) uint32 { return platform.LMUBase + off%platform.LMUSize },
		func(_ int, off uint32) uint32 { return platform.Uncached(platform.LMUBase + off%platform.LMUSize) },
	},
	{ // load or store
		func(c int, off uint32) uint32 { return platform.DSPRAddr(c, off%platform.ScratchpadSize) },
		func(_ int, off uint32) uint32 { return platform.PFlash0Base + off },
		func(_ int, off uint32) uint32 { return platform.Uncached(platform.PFlash1Base + off) },
		func(_ int, off uint32) uint32 { return platform.LMUBase + off%platform.LMUSize },
		func(_ int, off uint32) uint32 { return platform.PFlash1Base + off },
		func(_ int, off uint32) uint32 { return platform.Uncached(platform.LMUBase + off%platform.LMUSize) },
		func(_ int, off uint32) uint32 { return platform.DFlashBase + off },
	},
}

// fuzzCase decodes fuzz input into a run. The first four bytes pick the
// configuration:
//
//	b0: bits 0-2 active cores (none means core 1 alone), bits 3-5 which of
//	    them are TC1.6E, bit 6 flash prefetch, bit 7 service jitter;
//	b1: 2-bit SRI priority class per core, bit 6 enables the classes,
//	    bit 7 enables stall budgets;
//	b2: stall budget base (0 suspends at once);
//	b3: bits 0-2 which cores get a budget, bits 3-4 contender repeats
//	    (3 = unbounded), bits 5-7 the analysed core among the active ones.
//
// Every following 4-byte group is one access: compute gap, class ×
// region × owning core, and a 16-bit line offset folded so that set
// conflicts, dirty evictions and hits all occur.
type fuzzCase struct {
	cfg      Config
	analysed int
	build    taskBuilder
}

func decodeFuzzCase(data []byte) fuzzCase {
	var hdr [4]byte
	copy(hdr[:], data)
	body := data[min(len(data), 4):]

	var active []int
	for i := 0; i < NumCores; i++ {
		if hdr[0]&(1<<i) != 0 {
			active = append(active, i)
		}
	}
	if len(active) == 0 {
		active = []int{1}
	}
	fc := fuzzCase{
		analysed: active[int(hdr[3]>>5)%len(active)],
		cfg: Config{
			MaxCycles:     40_000,
			FlashPrefetch: hdr[0]&0x40 != 0,
		},
	}
	if hdr[0]&0x80 != 0 {
		fc.cfg.JitterSeed = uint64(hdr[2])<<8 | uint64(hdr[1]) | 1
	}
	if hdr[1]&0x40 != 0 {
		fc.cfg.SRIPriorities = map[int]int{}
		for _, i := range active {
			fc.cfg.SRIPriorities[i] = int(hdr[1]>>(2*i)) & 3
		}
	}
	if hdr[1]&0x80 != 0 {
		fc.cfg.StallBudgets = map[int]int64{}
		for i := 0; i < NumCores; i++ {
			if hdr[3]&(1<<i) != 0 {
				fc.cfg.StallBudgets[i] = int64(hdr[2]) * int64(i+1) * 3
			}
		}
	}
	repeats := int(hdr[3]>>3)&3 + 1
	if repeats == 4 {
		repeats = 0 // unbounded
	}

	accs := make(map[int][]trace.Access)
	for ; len(body) >= 4; body = body[4:] {
		gap := int64(body[0] & 7)
		if body[0]&0x80 != 0 {
			gap = int64(body[0]&0x7f) * 3
		}
		kind := trace.Kind(body[1] % 3)
		sel := int(body[1] / 3)
		region := sel % 7
		owner := active[sel/7%len(active)]
		class := 0
		if kind != trace.Fetch {
			class = 1
		}
		off := uint32(body[2]&0x3f)<<12 | uint32(body[3])<<2
		accs[owner] = append(accs[owner], trace.Access{Gap: gap, Kind: kind, Addr: fuzzRegions[class][region](owner, off)})
	}
	kinds := hdr[0] >> 3
	fc.build = func(*testing.T) map[int]Task {
		tasks := make(map[int]Task, len(active))
		for _, i := range active {
			kind := tricore.TC16P
			if kinds&(1<<i) != 0 {
				kind = tricore.TC16E
			}
			var src trace.Source = trace.NewSlice(accs[i])
			if i != fc.analysed {
				src = trace.NewRepeat(src, repeats)
			}
			tasks[i] = Task{Kind: kind, Src: src}
		}
		return tasks
	}
	return fc
}

// TestRunMatchesReferenceOnRandomTraces runs the fuzz decoder over a
// fixed stream of random inputs, so every plain test run covers a few
// hundred random task sets and configurations.
func TestRunMatchesReferenceOnRandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(0x7c27))
	lat := platform.TC27xLatencies()
	for i := 0; i < 300; i++ {
		data := make([]byte, 4+4*rng.Intn(400))
		rng.Read(data)
		if data[0]&0x40 != 0 {
			data[0] &^= 0x80 // the reference panics on prefetch with jitter
		}
		fc := decodeFuzzCase(data)
		got, gotErr := Run(lat, fc.build(t), fc.analysed, fc.cfg)
		want, wantErr := referenceRun(lat, fc.build(t), fc.analysed, fc.cfg)
		sameOutcome(t, fmt.Sprintf("sample %d (%x)", i, data[:4]), got, gotErr, want, wantErr)
	}
}

// FuzzRunEquivalence requires the event loop to reproduce the reference
// stepper exactly on random task sets and configurations.
func FuzzRunEquivalence(f *testing.F) {
	f.Add([]byte{0x06, 0x00, 0x00, 0x20, 1, 0, 0, 1, 0, 3, 0, 2, 2, 9, 1, 0})
	f.Add([]byte{0x07, 0x00, 0x00, 0x18, 0, 4, 1, 0, 0, 19, 1, 0, 0x83, 36, 7, 7})
	f.Add([]byte{0x46, 0x00, 0x00, 0x20, 0, 3, 0, 1, 0, 3, 0, 2, 0, 3, 0, 3})
	f.Add([]byte{0x8f, 0x49, 0x05, 0x20, 1, 5, 0, 1, 2, 18, 1, 1, 0, 20, 2, 9})
	f.Add([]byte{0x0e, 0x80, 0x00, 0x26, 0, 8, 0, 1, 0, 11, 3, 4, 1, 13, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := decodeFuzzCase(data)
		lat := platform.TC27xLatencies()
		got, gotErr := Run(lat, fc.build(t), fc.analysed, fc.cfg)
		if fc.cfg.FlashPrefetch && fc.cfg.JitterSeed != 0 {
			// The reference panics on this pair; the engine rejects it.
			if gotErr == nil {
				t.Fatal("prefetch with jitter accepted")
			}
			return
		}
		want, wantErr := referenceRun(lat, fc.build(t), fc.analysed, fc.cfg)
		sameOutcome(t, "Run", got, gotErr, want, wantErr)
		if errors.Is(gotErr, ErrDeadline) || fc.cfg.JitterSeed != 0 || fc.cfg.SRIPriorities != nil || fc.cfg.StallBudgets != nil {
			return
		}
		checkWarm(t, "RunIsolationWarm", fc.build, fc.analysed, fc.cfg)
	})
}

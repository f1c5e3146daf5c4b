package workload

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/platform"
	"repro/internal/trace"
)

// sameStream checks a streaming source against its reference trace: a
// Collect, then a partial drain of cut accesses, a Reset and a full drain
// by hand must each replay the reference exactly.
func sameStream(t *testing.T, name string, src trace.Source, err error, want []trace.Access, cut uint32) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got := trace.Collect(src); !slices.Equal(got, want) {
		t.Fatalf("%s: Collect gave %d accesses, reference %d (or a different access)", name, len(got), len(want))
	}
	for i := 0; i < int(cut%uint32(len(want)+1)); i++ {
		src.Next()
	}
	src.Reset()
	for i, w := range want {
		if a, ok := src.Next(); !ok || a != w {
			t.Fatalf("%s: after a partial drain and Reset, access %d = %+v ok=%v, want %+v", name, i, a, ok, w)
		}
	}
	if a, ok := src.Next(); ok {
		t.Fatalf("%s: stream runs past the reference's end: %+v", name, a)
	}
}

// FuzzGeneratorIdentity checks every streaming generator against the
// materialising builder it replaced (reference_test.go). size is the
// iteration, burst, access, revolution or frame count; extra picks the
// per-step width (map lookups, samples per frame) and the microbenchmark
// path. The committed corpus holds the Figure 4 sizings: the control loop
// at 300 iterations on core 1 and each load's contender on core 2.
func FuzzGeneratorIdentity(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(0), uint16(7), uint8(5), uint32(40))
	f.Fuzz(func(t *testing.T, scenario, core, level uint8, size uint16, extra uint8, cut uint32) {
		sc := Scenario(scenario%2 + 1)
		c := int(core % 3)
		n := int(size%4096) + 1

		app := AppConfig{Scenario: sc, Core: c, Iterations: n}
		src, err := ControlLoop(app)
		sameStream(t, "ControlLoop", src, err, referenceControlLoop(app), cut)

		cont := ContenderConfig{Level: Levels[int(level)%len(Levels)], Scenario: sc, Core: c, Bursts: n}
		src, err = Contender(cont)
		sameStream(t, "Contender", src, err, referenceContender(cont), cut)

		pairs := platform.AccessPairs()
		to := pairs[int(extra)%len(pairs)]
		mb := MicrobenchConfig{Target: to.Target, Op: to.Op, Write: extra&1 == 1, N: n, Gap: int64(extra % 8), Core: c}
		src, err = Microbench(mb)
		sameStream(t, "Microbench", src, err, referenceMicrobench(mb), cut)

		ec := EngineControlConfig{Core: c, Revolutions: n, MapLookups: int(extra % 16)}
		src, err = EngineControl(ec)
		sameStream(t, "EngineControl", src, err, referenceEngineControl(ec), cut)

		as := ADASStreamConfig{Core: c, Frames: n, SamplesPerFrame: int(extra%64) + 1}
		src, err = ADASStream(as)
		sameStream(t, "ADASStream", src, err, referenceADASStream(as), cut)
	})
}

// TestGeneratorsRunInConstantMemory drains the largest application a
// campaign grid admits (maxAppIterations in internal/experiments, 100,000)
// and an H-Load contender sized for it the way Figure 4 sizes one (2,438
// bursts per 300 scenario-2 iterations). Materialised, the pair would
// take ~365 MB; streamed, each holds one step. Not parallel: TotalAlloc
// counts every goroutine's allocations.
func TestGeneratorsRunInConstantMemory(t *testing.T) {
	const iterations = 100_000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	app, err := ControlLoop(AppConfig{Scenario: Scenario2, Core: 1, Iterations: iterations})
	if err != nil {
		t.Fatal(err)
	}
	cont, err := Contender(ContenderConfig{Level: HLoad, Scenario: Scenario2, Core: 2, Bursts: iterations * 2438 / 300})
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for _, src := range []trace.Source{app, cont} {
		for _, ok := src.Next(); ok; _, ok = src.Next() {
			n++
		}
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Errorf("draining %d accesses allocated %d bytes, want < 64 KiB", n, grew)
	}
	if want := iterations*79 + iterations*2438/300*9; n != want {
		t.Errorf("drained %d accesses, want %d", n, want)
	}
}

package sim

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/tricore"
)

// cacheableCodeLoop builds a trace that refetches the same small cacheable
// code footprint repeatedly — cold it misses, warm it hits.
func cacheableCodeLoop(lines, passes int) trace.Source {
	var accs []trace.Access
	for p := 0; p < passes; p++ {
		for i := 0; i < lines; i++ {
			accs = append(accs, trace.Access{Gap: 2, Kind: trace.Fetch,
				Addr: platform.PFlash0Base + uint32(i)*32})
		}
	}
	return trace.NewSlice(accs)
}

func TestWarmMeasurementDropsColdMisses(t *testing.T) {
	lat := platform.TC27xLatencies()
	mk := func() Task { return Task{Kind: tricore.TC16P, Src: cacheableCodeLoop(32, 1)} }

	cold, err := RunIsolation(lat, 1, mk(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunIsolationWarm(lat, 1, mk(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	// One pass over 32 lines fits the 16K I-cache: cold misses all 32,
	// warm misses none.
	if cold.Readings[1].PM != 32 {
		t.Errorf("cold PM = %d, want 32", cold.Readings[1].PM)
	}
	if warm.Readings[1].PM != 0 {
		t.Errorf("warm PM = %d, want 0", warm.Readings[1].PM)
	}
	if warm.Readings[1].PS != 0 {
		t.Errorf("warm PS = %d, want 0", warm.Readings[1].PS)
	}
	if warm.Cycles >= cold.Cycles {
		t.Errorf("warm run (%d) not faster than cold (%d)", warm.Cycles, cold.Cycles)
	}
	// CCNT must cover exactly the timed pass.
	if warm.Readings[1].CCNT != warm.Cycles {
		t.Errorf("warm CCNT %d != cycles %d", warm.Readings[1].CCNT, warm.Cycles)
	}
}

func TestWarmMeasurementDominatedByCold(t *testing.T) {
	// Every counter of the warm measurement is <= the cold one, so
	// cold-readings bounds stay valid for warm runs.
	lat := platform.TC27xLatencies()
	mk := func() Task { return Task{Kind: tricore.TC16P, Src: cacheableCodeLoop(600, 2)} }
	cold, err := RunIsolation(lat, 1, mk(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := RunIsolationWarm(lat, 1, mk(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	c, w := cold.Readings[1], warm.Readings[1]
	if w.PM > c.PM || w.PS > c.PS || w.DS > c.DS || w.CCNT > c.CCNT {
		t.Errorf("warm readings %v exceed cold %v", w, c)
	}
}

func TestWarmMeasurementValidation(t *testing.T) {
	var bad platform.LatencyTable
	if _, err := RunIsolationWarm(bad, 1, Task{Kind: tricore.TC16P, Src: trace.NewSlice(nil)}, Config{}); err == nil {
		t.Error("invalid latency table accepted")
	}
	lat := platform.TC27xLatencies()
	if _, err := RunIsolationWarm(lat, 1, Task{Kind: tricore.TC16P, Src: cacheableCodeLoop(32, 100)}, Config{MaxCycles: 10}); err == nil {
		t.Error("budget exhaustion not reported")
	}
}

// uncachedFlashFetches fetches n consecutive program-flash lines through
// the non-cached mirror, so the warm pass still reaches the SRI, where
// jitter varies the service time between lmin and lmax.
func uncachedFlashFetches(n int) trace.Source {
	accs := make([]trace.Access, n)
	for i := range accs {
		accs[i] = trace.Access{Gap: 1, Kind: trace.Fetch, Addr: platform.Uncached(platform.PFlash0Base + uint32(i)*32)}
	}
	return trace.NewSlice(accs)
}

func TestWarmMeasurementHonoursJitter(t *testing.T) {
	lat := platform.TC27xLatencies()
	warm := func(cfg Config) Result {
		t.Helper()
		res, err := RunIsolationWarm(lat, 1, Task{Kind: tricore.TC16P, Src: uncachedFlashFetches(200)}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := warm(Config{})
	a, b := warm(Config{JitterSeed: 42}), warm(Config{JitterSeed: 42})
	if !reflect.DeepEqual(a, b) {
		t.Errorf("jittered warm run not reproducible:\n%+v\n%+v", a, b)
	}
	if a.Cycles >= plain.Cycles || a.Readings[1].PS >= plain.Readings[1].PS {
		t.Errorf("jittered warm run (%d cycles, PS %d) not faster than the lmax one (%d, PS %d)",
			a.Cycles, a.Readings[1].PS, plain.Cycles, plain.Readings[1].PS)
	}
	if c := warm(Config{JitterSeed: 43}); reflect.DeepEqual(a, c) {
		t.Error("different jitter seeds gave identical warm runs")
	}
}

func TestWarmMeasurementHonoursStallBudget(t *testing.T) {
	lat := platform.TC27xLatencies()
	_, err := RunIsolationWarm(lat, 1, Task{Kind: tricore.TC16P, Src: uncachedFlashFetches(50)}, Config{
		StallBudgets: map[int]int64{1: 100},
	})
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline from the suspended warm-up pass", err)
	}
}

func TestWarmMeasurementValidatesPriorities(t *testing.T) {
	lat := platform.TC27xLatencies()
	if _, err := RunIsolationWarm(lat, 1, Task{Kind: tricore.TC16P, Src: uncachedFlashFetches(5)}, Config{
		SRIPriorities: map[int]int{5: 1},
	}); err == nil {
		t.Error("out-of-range priority core accepted")
	}
}

package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/platform"
	"repro/internal/trace"
	"repro/internal/tricore"
)

// uncachedLMULoads builds a trace of n non-cacheable LMU loads separated by
// gap compute cycles.
func uncachedLMULoads(n int, gap int64) trace.Source {
	accs := make([]trace.Access, n)
	for i := range accs {
		accs[i] = trace.Access{Gap: gap, Kind: trace.Load, Addr: platform.Uncached(platform.LMUBase) + uint32(i%256)*4}
	}
	return trace.NewSlice(accs)
}

func TestRunIsolationCounters(t *testing.T) {
	lat := platform.TC27xLatencies()
	res, err := RunIsolation(lat, 1, Task{Kind: tricore.TC16P, Src: uncachedLMULoads(100, 0)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Readings[1]
	if r.DS != 100*10 {
		t.Errorf("DS = %d, want 1000 (100 lmu data accesses at cs=10)", r.DS)
	}
	if got := res.PTAC[1][platform.TargetOp{Target: platform.LMU, Op: platform.Data}]; got != 100 {
		t.Errorf("ground-truth lmu/da grants = %d, want 100", got)
	}
	if w := res.TotalWait(1); w != 0 {
		t.Errorf("isolation run waited %d cycles", w)
	}
	if !res.Done[1] {
		t.Error("analysed task not done")
	}
}

func TestRunValidation(t *testing.T) {
	lat := platform.TC27xLatencies()
	if _, err := Run(lat, map[int]Task{}, 1, Config{}); err == nil {
		t.Error("run without analysed task accepted")
	}
	if _, err := Run(lat, map[int]Task{7: {Src: trace.NewSlice(nil)}}, 7, Config{}); err == nil {
		t.Error("core index 7 accepted")
	}
	var bad platform.LatencyTable
	if _, err := Run(bad, map[int]Task{1: {Src: trace.NewSlice(nil)}}, 1, Config{}); err == nil {
		t.Error("invalid latency table accepted")
	}
}

func TestDeadline(t *testing.T) {
	lat := platform.TC27xLatencies()
	_, err := RunIsolation(lat, 1, Task{Kind: tricore.TC16P, Src: uncachedLMULoads(1000, 0)}, Config{MaxCycles: 10})
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("err = %v, want ErrDeadline", err)
	}
}

func TestContentionSlowsAnalysedTask(t *testing.T) {
	lat := platform.TC27xLatencies()
	task := Task{Kind: tricore.TC16P, Src: uncachedLMULoads(200, 0)}
	iso, err := RunIsolation(lat, 1, task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	task.Src.Reset()
	contender := Task{Kind: tricore.TC16P, Src: trace.NewRepeat(uncachedLMULoads(200, 0), 0)}
	// Unbounded contender: it keeps hammering the LMU until core 1 ends.
	multi, err := Run(lat, map[int]Task{1: task, 2: contender}, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cycles <= iso.Cycles {
		t.Errorf("contended run (%d cycles) not slower than isolation (%d)", multi.Cycles, iso.Cycles)
	}
	if w := multi.TotalWait(1); w == 0 {
		t.Error("no arbitration wait recorded under contention")
	}
	// The slowdown must equal the arbitration wait the analysed core
	// accumulated (the only new phenomenon in the contended run).
	slowdown := multi.Cycles - iso.Cycles
	if w := multi.TotalWait(1); slowdown != w {
		t.Errorf("slowdown %d != analysed core's wait %d", slowdown, w)
	}
	// And the extra stall cycles recorded by the DSU must match too:
	// waits are charged in full to the stall counters.
	extraDS := multi.Readings[1].DS - iso.Readings[1].DS
	if extraDS != slowdown {
		t.Errorf("extra DMEM_STALL %d != slowdown %d", extraDS, slowdown)
	}
}

func TestDistinctTargetsDoNotInterfere(t *testing.T) {
	lat := platform.TC27xLatencies()
	task := Task{Kind: tricore.TC16P, Src: uncachedLMULoads(100, 0)}
	iso, err := RunIsolation(lat, 1, task, Config{})
	if err != nil {
		t.Fatal(err)
	}
	task.Src.Reset()
	// Contender hammers the data flash: different slave, no contention.
	dflAccs := make([]trace.Access, 100)
	for i := range dflAccs {
		dflAccs[i] = trace.Access{Kind: trace.Load, Addr: platform.DFlashBase + uint32(i%64)*4}
	}
	contender := Task{Kind: tricore.TC16P, Src: trace.NewRepeat(trace.NewSlice(dflAccs), 0)}
	multi, err := Run(lat, map[int]Task{1: task, 2: contender}, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if multi.Cycles != iso.Cycles {
		t.Errorf("disjoint-target contender changed execution time: %d vs %d", multi.Cycles, iso.Cycles)
	}
	if w := multi.TotalWait(1); w != 0 {
		t.Errorf("analysed core waited %d cycles with a disjoint contender", w)
	}
}

func TestDeterminism(t *testing.T) {
	lat := platform.TC27xLatencies()
	build := func() map[int]Task {
		return map[int]Task{
			1: {Kind: tricore.TC16P, Src: uncachedLMULoads(150, 2)},
			2: {Kind: tricore.TC16P, Src: trace.NewRepeat(uncachedLMULoads(50, 1), 0)},
		}
	}
	a, err := Run(lat, build(), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(lat, build(), 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestThreeCoreContention(t *testing.T) {
	lat := platform.TC27xLatencies()
	tasks := map[int]Task{
		0: {Kind: tricore.TC16E, Src: trace.NewRepeat(uncachedLMULoads(50, 0), 0)},
		1: {Kind: tricore.TC16P, Src: uncachedLMULoads(100, 0)},
		2: {Kind: tricore.TC16P, Src: trace.NewRepeat(uncachedLMULoads(50, 0), 0)},
	}
	res, err := Run(lat, tasks, 1, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// With two contenders on the same slave, each analysed request can
	// wait up to two full service times: wait <= 2 * 11 * n_a.
	wait := res.TotalWait(1)
	if wait == 0 {
		t.Error("no contention with two contenders")
	}
	if max := int64(2 * 11 * 100); wait > max {
		t.Errorf("wait %d exceeds round-robin bound %d", wait, max)
	}
}

// The round-robin bound is the core soundness argument of the paper's
// model: each request of the analysed task is delayed by at most one
// request per contender on the same target.
func TestRoundRobinWaitBound(t *testing.T) {
	lat := platform.TC27xLatencies()
	for _, nContender := range []int{1, 2} {
		tasks := map[int]Task{1: {Kind: tricore.TC16P, Src: uncachedLMULoads(300, 1)}}
		for i := 0; i < nContender; i++ {
			idx := 2 - i*2 // cores 2 and 0
			tasks[idx] = Task{Kind: tricore.TC16P, Src: trace.NewRepeat(uncachedLMULoads(100, 0), 0)}
		}
		res, err := Run(lat, tasks, 1, Config{})
		if err != nil {
			t.Fatal(err)
		}
		bound := int64(nContender) * 11 * 300
		if w := res.TotalWait(1); w > bound {
			t.Errorf("%d contenders: wait %d exceeds bound %d", nContender, w, bound)
		}
	}
}

// A run whose analysed core can never finish must fail at once at the
// default budget, not grind through two billion idle cycles first.
func TestDeadlineWhenAnalysedCoreSuspendedReturnsAtOnce(t *testing.T) {
	lat := platform.TC27xLatencies()
	for name, tasks := range map[string]func() map[int]Task{
		"alone": func() map[int]Task {
			return map[int]Task{1: {Kind: tricore.TC16P, Src: uncachedLMULoads(100, 3)}}
		},
		"beside an endless contender": func() map[int]Task {
			return map[int]Task{
				1: {Kind: tricore.TC16P, Src: uncachedLMULoads(100, 3)},
				2: {Kind: tricore.TC16P, Src: trace.NewRepeat(uncachedLMULoads(50, 1), 0)},
			}
		},
	} {
		for _, quota := range []int64{0, 25} {
			start := time.Now()
			_, err := Run(lat, tasks(), 1, Config{StallBudgets: map[int]int64{1: quota}})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("%s, quota %d: err = %v, want ErrDeadline", name, quota, err)
			}
			if want := "(budget 2000000000)"; !strings.HasSuffix(err.Error(), want) {
				t.Errorf("%s, quota %d: error %q does not end in %q", name, quota, err, want)
			}
			if d := time.Since(start); d > 5*time.Second {
				t.Errorf("%s, quota %d: deadline took %v", name, quota, d)
			}
		}
	}
}

func TestPrefetchWithJitterRejected(t *testing.T) {
	lat := platform.TC27xLatencies()
	cfg := Config{FlashPrefetch: true, JitterSeed: 9}
	task := func() Task { return Task{Kind: tricore.TC16P, Src: uncachedLMULoads(10, 0)} }
	for name, run := range map[string]func() (Result, error){
		"Run":              func() (Result, error) { return RunIsolation(lat, 1, task(), cfg) },
		"RunIsolationWarm": func() (Result, error) { return RunIsolationWarm(lat, 1, task(), cfg) },
	} {
		_, err := run()
		if err == nil || !strings.HasPrefix(err.Error(), "sim: ") {
			t.Errorf("%s: err = %v, want a sim: error", name, err)
		}
	}
}

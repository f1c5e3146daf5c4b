package campaign

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tricore"
	"repro/internal/workload"
)

var lat = platform.TC27xLatencies()

// microTask builds a small calibration microbenchmark task for memoization
// tests: cheap to simulate, fully deterministic.
func microTask(t testing.TB, n int) sim.Task {
	t.Helper()
	src, err := workload.Microbench(workload.MicrobenchConfig{
		Target: platform.LMU, Op: platform.Data, N: n, Core: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sim.Task{Kind: tricore.TC16P, Src: src}
}

func TestNewDefaultsToHardwareWidth(t *testing.T) {
	if got, want := New(0).Workers(), runtime.GOMAXPROCS(0); got != want {
		t.Errorf("New(0).Workers() = %d, want %d", got, want)
	}
	if got := New(3).Workers(); got != 3 {
		t.Errorf("New(3).Workers() = %d, want 3", got)
	}
}

// TestAllRunsOnCaller: on a one-wide engine the calling goroutine works
// every cell itself, at both priorities. The frame is matched with its
// "(" because the job closure's own frame is TestAllRunsOnCaller.func1.
func TestAllRunsOnCaller(t *testing.T) {
	e := New(1)
	job := func(ctx context.Context) (bool, error) {
		buf := make([]byte, 64<<10)
		stack := string(buf[:runtime.Stack(buf, false)])
		return strings.Contains(stack, "campaign.TestAllRunsOnCaller("), nil
	}
	for _, pri := range []Priority{Interactive, Background} {
		for i, o := range AllAt(context.Background(), e, pri, []Job[bool]{job, job, job}) {
			if o.Err != nil || !o.Value {
				t.Errorf("priority %d cell %d: ran on caller = %v (err %v), want true", pri, i, o.Value, o.Err)
			}
		}
	}
}

// TestAllPreservesInputOrder: outcomes land in input order regardless of
// completion order (later jobs finish first here because earlier ones wait
// for them).
func TestAllPreservesInputOrder(t *testing.T) {
	e := New(4)
	release := make(chan struct{})
	jobs := make([]Job[int], 8)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) {
			if i == 0 {
				// Job 0 finishes last.
				<-release
			} else if i == len(jobs)-1 {
				close(release)
			}
			return i * i, nil
		}
	}
	values, err := Collect(context.Background(), e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range values {
		if v != i*i {
			t.Errorf("values[%d] = %d, want %d", i, v, i*i)
		}
	}
}

// TestAllCollectsPerRunErrors: a failing cell neither aborts the campaign
// nor poisons its neighbours.
func TestAllCollectsPerRunErrors(t *testing.T) {
	e := New(2)
	boom := errors.New("boom")
	jobs := []Job[string]{
		func(ctx context.Context) (string, error) { return "a", nil },
		func(ctx context.Context) (string, error) { return "", boom },
		func(ctx context.Context) (string, error) { return "c", nil },
	}
	outcomes := All(context.Background(), e, jobs)
	if outcomes[0].Value != "a" || outcomes[0].Err != nil {
		t.Errorf("outcome 0 = %+v", outcomes[0])
	}
	if !errors.Is(outcomes[1].Err, boom) {
		t.Errorf("outcome 1 error = %v, want boom", outcomes[1].Err)
	}
	if outcomes[2].Value != "c" || outcomes[2].Err != nil {
		t.Errorf("outcome 2 = %+v", outcomes[2])
	}

	_, err := Collect(context.Background(), e, jobs)
	if !errors.Is(err, boom) {
		t.Errorf("Collect error = %v, want boom", err)
	}
	if !strings.Contains(err.Error(), "cell 1") {
		t.Errorf("Collect error %q does not name the failing cell", err)
	}
}

// TestAllCancellation: cancelling the context stops the feed; jobs that
// never started report the context error, jobs already running finish.
func TestAllCancellation(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	jobs := make([]Job[int], 5)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int, error) {
			ran.Add(1)
			if i == 0 {
				cancel()
			}
			return i, nil
		}
	}
	outcomes := All(ctx, e, jobs)
	if outcomes[0].Err != nil || outcomes[0].Value != 0 {
		t.Errorf("running job should have completed: %+v", outcomes[0])
	}
	cancelled := 0
	for _, o := range outcomes[1:] {
		if errors.Is(o.Err, context.Canceled) {
			cancelled++
		}
	}
	// With one worker, at most one more job can have slipped into the
	// feed channel before the cancel was observed.
	if cancelled < len(jobs)-2 {
		t.Errorf("%d of %d trailing jobs report cancellation, want >= %d",
			cancelled, len(jobs)-1, len(jobs)-2)
	}
	if int(ran.Load())+cancelled != len(jobs) {
		t.Errorf("ran %d + cancelled %d != %d jobs", ran.Load(), cancelled, len(jobs))
	}
}

// TestIsolationMemoization: the second identical request is a cache hit
// that skips both the build and the simulation; distinct keys and configs
// miss.
func TestIsolationMemoization(t *testing.T) {
	e := New(2)
	var builds atomic.Int32
	run := func(key string, cfg sim.Config) sim.Result {
		res, err := e.Isolation(context.Background(), lat, 1, key, cfg, func() (sim.Task, error) {
			builds.Add(1)
			return microTask(t, 10), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	first := run("micro/10", sim.Config{})
	second := run("micro/10", sim.Config{})
	if builds.Load() != 1 {
		t.Errorf("%d builds after identical requests, want 1", builds.Load())
	}
	if s := e.Stats(); s.IsolationHits != 1 || s.IsolationMisses != 1 || s.SimRuns != 1 {
		t.Errorf("stats after hit = %+v", s)
	}
	if first.Readings[1] != second.Readings[1] || first.Cycles != second.Cycles {
		t.Error("cache hit returned different readings")
	}

	run("micro/10", sim.Config{FlashPrefetch: true}) // config is part of the key
	run("micro/10-other", sim.Config{})              // as is the task key
	if s := e.Stats(); s.IsolationMisses != 3 {
		t.Errorf("distinct configs/keys should miss: %+v", s)
	}

	var other platform.LatencyTable = lat
	other[platform.LMU][platform.Data].Max++ // and the latency table
	if _, err := e.Isolation(context.Background(), other, 1, "micro/10", sim.Config{}, func() (sim.Task, error) {
		return microTask(t, 10), nil
	}); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.IsolationMisses != 4 {
		t.Errorf("distinct latency table should miss: %+v", s)
	}
}

// TestIsolationSingleflight: concurrent requests for one key simulate
// exactly once; everyone else blocks and then reads the cached result.
func TestIsolationSingleflight(t *testing.T) {
	e := New(8)
	var builds atomic.Int32
	const callers = 8
	var wg sync.WaitGroup
	results := make([]sim.Result, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Isolation(context.Background(), lat, 1, "micro/shared", sim.Config{}, func() (sim.Task, error) {
				builds.Add(1)
				return microTask(t, 50), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = res
		}()
	}
	wg.Wait()
	if builds.Load() != 1 {
		t.Errorf("%d concurrent builds, want 1", builds.Load())
	}
	s := e.Stats()
	if s.IsolationMisses != 1 || s.IsolationHits != callers-1 {
		t.Errorf("stats = %+v, want 1 miss / %d hits", s, callers-1)
	}
	for i := 1; i < callers; i++ {
		if results[i].Cycles != results[0].Cycles {
			t.Fatalf("caller %d saw different cycles", i)
		}
	}
}

// TestIsolationBuildErrorIsSticky: a failing build reports its error to
// every requester without re-running.
func TestIsolationBuildErrorIsSticky(t *testing.T) {
	e := New(1)
	boom := errors.New("bad trace")
	for i := 0; i < 2; i++ {
		_, err := e.Isolation(context.Background(), lat, 1, "broken", sim.Config{}, func() (sim.Task, error) {
			return sim.Task{}, boom
		})
		if !errors.Is(err, boom) {
			t.Errorf("call %d: err = %v, want boom", i, err)
		}
	}
	if s := e.Stats(); s.SimRuns != 0 {
		t.Errorf("failed build must not reach the simulator: %+v", s)
	}
}

// TestIsolationCancelled: a cancelled context short-circuits before
// touching the cache or the simulator.
func TestIsolationCancelled(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Isolation(ctx, lat, 1, "never", sim.Config{}, func() (sim.Task, error) {
		t.Error("build ran despite cancelled context")
		return sim.Task{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if _, err := e.Run(ctx, lat, nil, 0, sim.Config{}); !errors.Is(err, context.Canceled) {
		t.Errorf("Run err = %v, want context.Canceled", err)
	}
}

// TestConfigKeyCanonical: map-valued config fields hash identically
// regardless of insertion order, and different budgets differ.
func TestConfigKeyCanonical(t *testing.T) {
	a := configKey(sim.Config{StallBudgets: map[int]int64{1: 10, 2: 20}, SRIPriorities: map[int]int{0: 1, 2: 3}})
	b := configKey(sim.Config{StallBudgets: map[int]int64{2: 20, 1: 10}, SRIPriorities: map[int]int{2: 3, 0: 1}})
	if a != b {
		t.Errorf("order-dependent config key:\n%s\n%s", a, b)
	}
	c := configKey(sim.Config{StallBudgets: map[int]int64{1: 11, 2: 20}})
	if a == c {
		t.Error("different stall budgets collide")
	}
	full := sim.Config{MaxCycles: 5, FlashPrefetch: true, JitterSeed: 7,
		StallBudgets: map[int]int64{2: 20, 1: 10}, SRIPriorities: map[int]int{0: 1}}
	if got, want := configKey(full), "max=5;pf=true;jitter=7;stall=1:10,2:20,;prio=0:1,"; got != want {
		t.Errorf("configKey = %q, want %q", got, want)
	}
}

// TestEngineParallelRuns exercises the pool with real simulations under
// the race detector: many distinct isolation cells at once.
func TestEngineParallelRuns(t *testing.T) {
	e := New(8)
	jobs := make([]Job[int64], 12)
	for i := range jobs {
		jobs[i] = func(ctx context.Context) (int64, error) {
			res, err := e.Isolation(ctx, lat, 1, fmt.Sprintf("micro/n%d", 10+i), sim.Config{}, func() (sim.Task, error) {
				return microTask(t, 10+i), nil
			})
			return res.Cycles, err
		}
	}
	values, err := Collect(context.Background(), e, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(values); i++ {
		if values[i] <= values[i-1] {
			t.Errorf("cycles not increasing with access count: %v", values)
		}
	}
}

// TestConcurrentCampaignsShareSlots launches many campaigns concurrently on
// one engine and asserts the engine-level slot semaphore bounds the number
// of simultaneously running jobs to the pool width, no matter how many
// campaigns are in flight — the request-driven regime the serving layer
// puts the engine in.
func TestConcurrentCampaignsShareSlots(t *testing.T) {
	const workers = 3
	const campaigns = 8
	const jobsPer = 6
	e := New(workers)

	var running, peak atomic.Int64
	job := func(ctx context.Context) (int, error) {
		now := running.Add(1)
		for {
			old := peak.Load()
			if now <= old || peak.CompareAndSwap(old, now) {
				break
			}
		}
		runtime.Gosched()
		running.Add(-1)
		return 0, nil
	}

	var wg sync.WaitGroup
	for c := 0; c < campaigns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			jobs := make([]Job[int], jobsPer)
			for i := range jobs {
				jobs[i] = job
			}
			for _, o := range All(context.Background(), e, jobs) {
				if o.Err != nil {
					t.Errorf("job failed: %v", o.Err)
				}
			}
		}()
	}
	wg.Wait()

	if got := peak.Load(); got > workers {
		t.Fatalf("peak concurrent jobs %d exceeds pool width %d", got, workers)
	}
}

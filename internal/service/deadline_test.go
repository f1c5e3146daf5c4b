package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/wcet"
)

// scenario2Body is a /v2/analyze request for model on Table 5's scenario 2
// readings (the 2,551-node ILP-PTAC search at the default gap).
func scenario2Body(model string) []byte {
	return []byte(`{"scenario": 2, "models": ["` + model + `"],
  "analysed": {"CCNT": 100000, "PS": 6000, "DS": 10000, "PM": 1000, "DMC": 500},
  "contenders": [{"CCNT": 100000, "PS": 4800, "DS": 7000, "PM": 800, "DMC": 300}]}`)
}

// TestDeadlineFreesSlot runs an exact-gap ILP-PTAC solve, which takes far
// longer than the request timeout, and checks that the deadline stops it:
// the client gets 503, the admitted request leaves in-flight within 10 ms
// of the deadline (/v1/stats and wcetd_in_flight both read 0), and nothing
// of the stopped solve is cached. The race detector slows the solver's
// 64-node stretch between two context checks several times over, so a
// -race build allows 50 ms.
func TestDeadlineFreesSlot(t *testing.T) {
	const timeout = 50 * time.Millisecond
	slack := 10 * time.Millisecond
	if raceEnabled {
		slack *= 5
	}
	deadlines := make(chan time.Time, 2)
	reg := wcet.NewDefaultRegistry()
	reg.MustRegister(wcet.NewModel("exactGap", func(ctx context.Context, in wcet.Input) (wcet.Estimate, error) {
		deadline, _ := ctx.Deadline()
		deadlines <- deadline
		ci := core.Input{A: in.Analysed, B: in.Contenders, Lat: in.Latencies, Scenario: in.Scenario}
		return core.ILPPTAC(ci, core.PTACOptions{Gap: 1e-6, Ctx: ctx})
	}))
	s, ts := newTestServer(t, Config{Registry: reg, RequestTimeout: timeout})

	for try := 1; try <= 2; try++ {
		status := postAsync(ts.URL+"/v2/analyze", scenario2Body("exactGap"))
		// The model reports the request's deadline as its solve starts.
		// Poll in process: HTTP polls would take the CPU the stop needs.
		deadline := <-deadlines
		time.Sleep(time.Until(deadline))
		for s.StatsSnapshot().InFlight != 0 {
			if late := time.Since(deadline); late > slack {
				t.Fatalf("try %d: still in flight %v after the deadline", try, late)
			}
			time.Sleep(100 * time.Microsecond)
		}
		var st Stats
		if code := getJSON(t, ts.URL+"/v1/stats", &st); code != http.StatusOK || st.InFlight != 0 {
			t.Fatalf("try %d: /v1/stats HTTP %d, inFlight %d; want 0", try, code, st.InFlight)
		}
		if v := metricValue(t, scrape(t, ts.URL), "wcetd_in_flight"); v != 0 {
			t.Fatalf("try %d: wcetd_in_flight %g, want 0", try, v)
		}
		if code := <-status; code != http.StatusServiceUnavailable {
			t.Fatalf("try %d: status %d, want 503", try, code)
		}
		// The retry is a miss again: the stopped solve left no result.
		if st := s.StatsSnapshot(); st.Cache.Hits != 0 || st.Cache.Misses != int64(try) || st.Cache.Entries != 0 {
			t.Errorf("try %d: cache %+v, want %d misses and nothing cached", try, st.Cache, try)
		}
	}
}

// onCallerRegistry is the default registry with ftc and ilpPtac wrapped to
// count the solves that ran on the goroutine of a handler's
// (*Server).serveCached, and those that did not.
func onCallerRegistry(on, off *atomic.Int64) *wcet.Registry {
	base := wcet.DefaultRegistry()
	reg := wcet.NewRegistry()
	for _, name := range []string{"ftc", "ilpPtac"} {
		m, err := base.Resolve(name)
		if err != nil {
			panic(err)
		}
		reg.MustRegister(wcet.NewModel(name, func(ctx context.Context, in wcet.Input) (wcet.Estimate, error) {
			buf := make([]byte, 64<<10)
			if strings.Contains(string(buf[:runtime.Stack(buf, false)]), "service.(*Server).serveCached(") {
				on.Add(1)
			} else {
				off.Add(1)
			}
			return m.Estimate(ctx, in)
		}))
	}
	return reg
}

// TestMissRunsOnHandler: a /v1/wcet or /v2/analyze miss solves on the
// handler's own goroutine, with no goroutine of its own.
func TestMissRunsOnHandler(t *testing.T) {
	var on, off atomic.Int64
	_, ts := newTestServer(t, Config{Registry: onCallerRegistry(&on, &off)})
	if status, body := post(t, ts.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0))); status != http.StatusOK {
		t.Fatalf("/v1/wcet: status %d: %s", status, body)
	}
	resp, _ := postV2(t, ts.URL, `{"scenario": 1, "models": ["ilpPtac"], `+v2Analysed+`}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v2/analyze: %s", resp.Status)
	}
	if on.Load() != 3 || off.Load() != 0 {
		t.Errorf("%d solves on the handler goroutine, %d elsewhere; want 3, 0", on.Load(), off.Load())
	}
}

// TestJoinerTakesOver cancels the client of a request whose solve an
// identical request has joined: the solve stops, the joiner, whose
// deadline is live, solves the key itself and gets 200, and the key is
// cached once.
func TestJoinerTakesOver(t *testing.T) {
	var calls, solved atomic.Int64
	started := make(chan struct{})
	reg := wcet.NewRegistry()
	reg.MustRegister(wcet.NewModel("slow", func(ctx context.Context, in wcet.Input) (wcet.Estimate, error) {
		if calls.Add(1) == 1 {
			close(started)
			<-ctx.Done()
			return wcet.Estimate{}, ctx.Err()
		}
		solved.Add(1)
		return wcet.Estimate{Model: "slow", IsolationCycles: in.Analysed.CCNT, ContentionCycles: 7}, nil
	}))
	s, ts := newTestServer(t, Config{Registry: reg, Workers: 2})
	body := []byte(`{"scenario": 1, "models": ["slow"], ` + v2Analysed + `}`)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	defer cancelLeader()
	leaderErr := make(chan error, 1)
	go func() {
		req, err := http.NewRequestWithContext(leaderCtx, http.MethodPost, ts.URL+"/v2/analyze", bytes.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
			}
		}
		leaderErr <- err
	}()
	<-started
	joiner := postAsync(ts.URL+"/v2/analyze", body)
	if !waitFor(t, 5*time.Second, func() bool { return s.StatsSnapshot().Cache.Dedup == 1 }) {
		t.Fatal("the second request never joined the first one's solve")
	}
	cancelLeader()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader client: %v, want context.Canceled", err)
	}
	if status := <-joiner; status != http.StatusOK {
		t.Fatalf("joiner: status %d, want 200", status)
	}
	st := s.StatsSnapshot()
	if solved.Load() != 1 || st.Cache.Entries != 1 || st.Cache.Misses != 1 || st.Cache.Dedup != 1 {
		t.Errorf("%d solves finished, cache %+v; want 1 solve, 1 entry, 1 miss, 1 dedup", solved.Load(), st.Cache)
	}
	if status, _ := post(t, ts.URL+"/v2/analyze", body); status != http.StatusOK || calls.Load() != 2 {
		t.Errorf("repeat: status %d after %d model calls; want a 200 cache hit after 2", status, calls.Load())
	}
}

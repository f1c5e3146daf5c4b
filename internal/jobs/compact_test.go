package jobs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
)

// checkStream checks the events a stream framed from afterSeq on: the
// cells after afterSeq exactly once, with contiguous Seq, then the
// terminal done event. From afterSeq 0 the cells cover the whole grid.
func checkStream(t testing.TB, evs []frame, afterSeq, cells int) {
	t.Helper()
	if want := cells + 1 - afterSeq; len(evs) != want {
		t.Errorf("stream after %d framed %d events, want %d", afterSeq, len(evs), want)
		return
	}
	seen := make(map[int]bool)
	for k, f := range evs {
		var ev Event
		if err := json.Unmarshal(f.JSON, &ev); err != nil {
			t.Errorf("event %d: %v", f.Seq, err)
			return
		}
		if f.Seq != afterSeq+k+1 || ev.Seq != f.Seq || ev.Type != f.Type {
			t.Errorf("event %d of the stream after %d is seq %d (%s), framed as seq %d (%s)", k, afterSeq, ev.Seq, ev.Type, f.Seq, f.Type)
			return
		}
		last := k == len(evs)-1
		switch {
		case last && (ev.Type != "state" || ev.State != StateDone || ev.Done != cells):
			t.Errorf("stream after %d ends with %s", afterSeq, f.JSON)
		case !last && (ev.Type != "cell" || ev.Point == nil || ev.Done != ev.Seq || seen[ev.Index]):
			t.Errorf("stream after %d: bad or repeated cell event %s", afterSeq, f.JSON)
		}
		seen[ev.Index] = true
	}
}

// TestStreamAcrossFinish opens streams at random moments while jobs run
// and finish, and, through the manager's artifactHook, between a done
// job's artifact and its terminal event. Every stream must frame each
// cell after its position exactly once, with contiguous Seq, then the
// terminal event, and its bytes must be those of the finished job's
// replay.
func TestStreamAcrossFinish(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		m, err := Open(Config{Dir: dir, Engine: campaign.New(2), Store: newStore(t), Logger: quiet})
		if err != nil {
			t.Fatal(err)
		}
		const jobs, readers = 6, 6
		var (
			mu      sync.Mutex
			streams = make(map[string][][]frame) // by job ID, each from afterSeq 0
			wg      sync.WaitGroup
			live    atomic.Int64
		)
		read := func(id string, afterSeq int, st *Stream) {
			if st.Wake() != nil {
				live.Add(1)
			}
			evs := readStream(t, st)
			checkStream(t, evs, afterSeq, 6)
			if afterSeq == 0 {
				mu.Lock()
				streams[id] = append(streams[id], evs)
				mu.Unlock()
			}
		}
		m.artifactHook = func(id string) {
			for after := 0; after < 3; after++ {
				st, err := m.Subscribe(id, after)
				if err != nil {
					t.Error(err)
					continue
				}
				wg.Add(1)
				go func() { defer wg.Done(); read(id, after, st) }()
			}
		}
		ids := make(chan string, jobs*readers)
		stop := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(r)))
				var seen []string
				for {
					select {
					case id := <-ids:
						seen = append(seen, id)
					case <-stop:
						return
					default:
					}
					if len(seen) == 0 {
						runtime.Gosched()
						continue
					}
					id := seen[rng.Intn(len(seen))]
					after := 0
					if rng.Intn(3) == 0 {
						after = rng.Intn(8)
					}
					time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
					st, err := m.Subscribe(id, after)
					if err != nil {
						t.Error(err)
						return
					}
					read(id, after, st)
				}
			}(r)
		}
		var done []string
		for i := 0; i < jobs; i++ {
			// Pairs of jobs share a grid: the first of a pair solves its
			// cells, the second finds them memoized and finishes fast.
			spec := smallSpec()
			spec.Grid.AppIterations += i / 2
			st, err := m.Submit(spec, "tc27x/default")
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < readers; r++ {
				ids <- st.ID
			}
			if i%2 == 1 {
				waitState(t, m, st.ID, StateDone)
			}
			done = append(done, st.ID)
		}
		for _, id := range done {
			waitState(t, m, id, StateDone)
		}
		close(stop)
		wg.Wait()
		t.Logf("dir %q: %d streams opened on unfinished jobs", dir, live.Load())

		for _, id := range done {
			st, err := m.Subscribe(id, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := readStream(t, st)
			if len(streams[id]) == 0 {
				t.Errorf("job %s: no stream opened in the finish window", id)
			}
			for _, evs := range streams[id] {
				for k := range evs {
					if !bytes.Equal(evs[k].JSON, want[k].JSON) {
						t.Fatalf("job %s event %d: streamed %s, replayed %s", id, k+1, evs[k].JSON, want[k].JSON)
					}
				}
			}
		}
		closeNow(t, m)
	}
}

// TestDoneJobsShareResult: done jobs whose artifacts hash alike share one
// result entry; a done job holds no cells of its own.
func TestDoneJobsShareResult(t *testing.T) {
	m := open(t, "", newStore(t))
	defer closeNow(t, m)
	other := smallSpec()
	other.Grid.AppIterations = 61
	a, _ := runToDone(t, m, smallSpec())
	b, _ := runToDone(t, m, smallSpec())
	c, _ := runToDone(t, m, other)

	m.mu.Lock()
	ja, jb, jc, n := m.jobs[a], m.jobs[b], m.jobs[c], len(m.results)
	m.mu.Unlock()
	if n != 2 {
		t.Fatalf("%d result entries for two distinct grids", n)
	}
	if ja.res == nil || ja.res != jb.res || jc.res == ja.res {
		t.Fatal("equal artifacts do not share one result, or distinct ones do")
	}
	if len(ja.res.data) == 0 || len(ja.res.points) != 6 {
		t.Fatalf("in-memory result holds %d artifact bytes and %d points", len(ja.res.data), len(ja.res.points))
	}
	for _, j := range []*job{ja, jb, jc} {
		if j.points != nil || j.arena != nil || j.pts != nil || j.subs != nil || len(j.order) != 6 {
			t.Fatalf("done job %s keeps per-job cell state", j.meta.ID)
		}
	}
}

// TestReopenedStreamsByteIdentical: a -data manager reopened after N done
// jobs serves the same stream bytes, from the start and mid-stream, and
// the same artifacts, and the reopened jobs share results as before.
func TestReopenedStreamsByteIdentical(t *testing.T) {
	store := newStore(t)
	dir := t.TempDir()
	m := open(t, dir, store)
	specs := []Spec{smallSpec(), smallSpec(), smallSpec()}
	specs[2].Grid.AppIterations = 61
	type snapshot struct{ full, mid, artifact []byte }
	take := func(m *Manager, id string) snapshot {
		var s snapshot
		for _, after := range []int{0, 3} {
			st, err := m.Subscribe(id, after)
			if err != nil {
				t.Fatal(err)
			}
			b, ended := st.AppendFrames(nil, appendTestHead, "\n")
			st.Close()
			if !ended {
				t.Fatalf("job %s stream has not ended", id)
			}
			if after == 0 {
				s.full = b
			} else {
				s.mid = b
			}
		}
		var err error
		if s.artifact, _, err = m.Artifact(id); err != nil {
			t.Fatal(err)
		}
		return s
	}
	want := make(map[string]snapshot)
	for _, spec := range specs {
		id, _ := runToDone(t, m, spec)
		want[id] = take(m, id)
	}
	closeNow(t, m)

	m2 := open(t, dir, store)
	defer closeNow(t, m2)
	for id, w := range want {
		got := take(m2, id)
		if !bytes.Equal(got.full, w.full) || !bytes.Equal(got.mid, w.mid) || !bytes.Equal(got.artifact, w.artifact) {
			t.Fatalf("job %s: reopened stream or artifact differs", id)
		}
	}
	m2.mu.Lock()
	n := len(m2.results)
	m2.mu.Unlock()
	if n != 2 {
		t.Fatalf("reopened manager holds %d results for two distinct grids", n)
	}
}

// BenchmarkFinishedJobRetained runs b.N 24-cell jobs to done on an
// in-memory manager (wcetd without -data) and reports the heap each
// finished job leaves behind: for one grid submitted again and again,
// and for a distinct grid per job.
func BenchmarkFinishedJobRetained(b *testing.B) {
	for _, distinct := range []bool{false, true} {
		name := "repeated"
		if distinct {
			name = "distinct"
		}
		b.Run(name, func(b *testing.B) {
			m, err := Open(Config{Engine: campaign.New(0), Store: newStore(b), MaxActive: 1 << 20, Logger: quiet})
			if err != nil {
				b.Fatal(err)
			}
			defer closeNow(b, m)
			spec := func(i int) Spec {
				s := Spec{Grid: experiments.GridSpec{
					Models:        []string{"ftc"},
					AppIterations: 60,
					Perturbations: []experiments.PerturbationSpec{
						{}, {Name: "up10", ScalePercent: 110}, {Name: "up20", ScalePercent: 120}, {Name: "down10", ScalePercent: 90},
					},
				}}
				if distinct {
					s.Grid.Perturbations[0] = experiments.PerturbationSpec{Name: "p" + strconv.Itoa(i), ScalePercent: 100}
				}
				return s
			}
			// run submits a job and follows its stream to the end.
			run := func(s Spec) {
				st, err := m.Submit(s, "tc27x/default")
				if err != nil {
					b.Fatal(err)
				}
				stream, err := m.Subscribe(st.ID, 0)
				if err != nil {
					b.Fatal(err)
				}
				if evs := readStream(b, stream); !bytes.Contains(evs[len(evs)-1].JSON, []byte(`"state":"done"`)) {
					b.Fatalf("job ended with %s", evs[len(evs)-1].JSON)
				}
			}
			run(spec(-1)) // warm the engine's memo
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run(spec(i))
			}
			b.StopTimer()
			runtime.GC()
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(b.N), "retained_B/job")
		})
	}
}

// TestEventEncoding checks the direct event encoders against json.Marshal
// of the Event: cell events with and without an index, and the terminal
// event of each state, with an error text that needs escaping.
func TestEventEncoding(t *testing.T) {
	pt := experiments.PointJSON{Perturbation: "up<10>", Scenario: 2, Level: "H-Load", IsolationCycles: 1234,
		Estimates: []experiments.EstimateJSON{{Name: "ftc", Model: "fTC", IsolationCycles: 1234, ContentionCycles: 99, WCETCycles: 1333, Ratio: 1.0802}}}
	raw, err := json.Marshal(pt)
	if err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{0, 17} {
		want, _ := json.Marshal(Event{Seq: 3, Type: "cell", Index: idx, Done: 3, Total: 24, Point: &pt})
		if got := appendCellEvent(nil, 3, idx, 24, raw); !bytes.Equal(got, want) {
			t.Errorf("cell event:\n got %s\nwant %s", got, want)
		}
	}
	for _, meta := range []Meta{
		{TotalCells: 24, State: StateDone, Artifact: "4f17ab"},
		{TotalCells: 24, State: StateFailed, Error: "cell 3: \"bad\" <ratio> & é \n"},
		{TotalCells: 24, State: StateCanceled, Error: "canceled"},
	} {
		want, _ := json.Marshal(Event{Seq: 8, Type: "state", Done: 7, Total: 24, State: meta.State, Error: meta.Error, Artifact: meta.Artifact})
		if got := appendStateEvent(nil, 8, 7, &meta); !bytes.Equal(got, want) {
			t.Errorf("state event:\n got %s\nwant %s", got, want)
		}
	}
}

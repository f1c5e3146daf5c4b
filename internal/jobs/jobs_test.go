package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/store"
	"repro/internal/tabstore"
	"repro/wcet"
)

var lat = platform.TC27xLatencies()

// newStore builds a store serving the TC27x table under the default ref.
func newStore(t testing.TB) *tabstore.Store {
	t.Helper()
	store, err := tabstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	id, err := store.Put(lat)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SetRef("tc27x/default", id); err != nil {
		t.Fatal(err)
	}
	return store
}

// smallSpec is a fast 6-cell grid (2 scenarios × 3 levels, fTC only).
func smallSpec() Spec {
	return Spec{Grid: experiments.GridSpec{
		AppIterations: 60,
		Models:        []string{"ftc"},
	}}
}

// referenceArtifact computes the uninterrupted in-process artifact for a
// spec — the bytes a job must reproduce exactly.
func referenceArtifact(t *testing.T, store *tabstore.Store, spec Spec) []byte {
	t.Helper()
	grid, err := spec.Grid.Compile(store, wcet.DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := experiments.NewRunner(nil).Sweep(context.Background(), lat, grid)
	if err != nil {
		t.Fatal(err)
	}
	data, err := experiments.EncodeArtifact(experiments.WirePoints(pts))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// quiet discards a test manager's lifecycle logs.
var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// open builds a manager over dir.
func open(t *testing.T, dir string, store *tabstore.Store) *Manager {
	t.Helper()
	m, err := Open(Config{Dir: dir, Engine: campaign.New(4), Store: store, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// waitState polls until the job reaches a terminal state.
func waitState(t testing.TB, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s (%d/%d cells)", id, st.State, st.DoneCells, st.TotalCells)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func closeNow(t testing.TB, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestJobLifecycle(t *testing.T) {
	store := newStore(t)
	dir := t.TempDir()
	m := open(t, dir, store)
	defer closeNow(t, m)

	spec := smallSpec()
	st, err := m.Submit(spec, "tc27x/default")
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalCells != 6 {
		t.Fatalf("total cells %d, want 6", st.TotalCells)
	}
	if st.BaseTable == "" {
		t.Fatal("base table not pinned")
	}
	final := waitState(t, m, st.ID, StateDone)
	if final.DoneCells != 6 || final.Artifact == "" {
		t.Fatalf("final status %+v", final)
	}

	data, artID, err := m.Artifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if artID != final.Artifact {
		t.Fatalf("artifact id mismatch: %s vs %s", artID, final.Artifact)
	}
	if want := referenceArtifact(t, store, spec); !bytes.Equal(data, want) {
		t.Fatal("job artifact differs from uninterrupted in-process sweep")
	}

	list := m.List()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list %+v", list)
	}
}

// frame is one event as a stream framed it.
type frame struct {
	Seq  int
	Type string
	JSON []byte
}

// appendTestHead heads each frame with a "<seq> <type>" line; the event
// JSON (which holds no raw newline) follows on a line of its own.
func appendTestHead(b []byte, seq int, typ string) []byte {
	return fmt.Appendf(b, "%d %s\n", seq, typ)
}

// parseFrames splits what appendTestHead and a "\n" tail framed.
func parseFrames(t testing.TB, b []byte) []frame {
	t.Helper()
	lines := strings.Split(string(b), "\n")
	var out []frame
	for i := 0; i+1 < len(lines); i += 2 {
		var f frame
		if _, err := fmt.Sscanf(lines[i], "%d %s", &f.Seq, &f.Type); err != nil {
			t.Fatalf("frame head %q: %v", lines[i], err)
		}
		f.JSON = []byte(lines[i+1])
		out = append(out, f)
	}
	return out
}

// readStream frames a stream to its end: the replay, then each wake-up's
// events.
func readStream(t testing.TB, st *Stream) []frame {
	t.Helper()
	defer st.Close()
	b, ended := st.AppendFrames(nil, appendTestHead, "\n")
	for !ended {
		<-st.Wake()
		b, ended = st.AppendFrames(b, appendTestHead, "\n")
	}
	return parseFrames(t, b)
}

func TestJobEventsAndSubscribeReplay(t *testing.T) {
	store := newStore(t)
	m := open(t, t.TempDir(), store)
	defer closeNow(t, m)

	st, err := m.Submit(smallSpec(), "tc27x/default")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)

	stream, err := m.Subscribe(st.ID, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stream.Wake() != nil {
		t.Fatal("a terminal job's stream should never wake")
	}
	b, ended := stream.AppendFrames(nil, appendTestHead, "\n")
	if !ended {
		t.Fatal("a terminal job's replay should end the stream")
	}
	replay := parseFrames(t, b)
	if len(replay) != 7 { // 6 cells + terminal
		t.Fatalf("replay length %d, want 7", len(replay))
	}
	var last Event
	for i, enc := range replay {
		if err := json.Unmarshal(enc.JSON, &last); err != nil {
			t.Fatal(err)
		}
		if enc.Seq != i+1 || last.Seq != enc.Seq || last.Type != enc.Type {
			t.Fatalf("event %d is %+v, framed as seq %d type %q", i, last, enc.Seq, enc.Type)
		}
	}
	if last.Type != "state" || last.State != StateDone || last.Artifact == "" {
		t.Fatalf("terminal event %+v", last)
	}
	if b, ended := stream.AppendFrames(nil, appendTestHead, "\n"); len(b) != 0 || !ended {
		t.Fatalf("a stream past its terminal event framed %q (ended %v)", b, ended)
	}

	// Resume mid-stream: afterSeq 3 replays exactly events 4..7.
	stream, err = m.Subscribe(st.ID, 3)
	if err != nil {
		t.Fatal(err)
	}
	if partial := readStream(t, stream); len(partial) != 4 || partial[0].Seq != 4 {
		t.Fatalf("partial replay %+v", partial)
	}

	if _, err := m.Subscribe("j-nope", 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unknown job subscribe: %v", err)
	}
}

// TestConcurrentSubscribers subscribes from several goroutines while a
// job runs: whenever each one joins, it frames the whole log, in order,
// and every subscriber sees the same bytes for each event.
func TestConcurrentSubscribers(t *testing.T) {
	m := open(t, "", newStore(t))
	defer closeNow(t, m)
	st, err := m.Submit(smallSpec(), "tc27x/default")
	if err != nil {
		t.Fatal(err)
	}
	const subscribers = 8
	got := make([][]frame, subscribers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i) * time.Millisecond)
			stream, err := m.Subscribe(st.ID, 0)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = readStream(t, stream)
		}(i)
	}
	wg.Wait()
	want := got[0]
	if len(want) != 7 {
		t.Fatalf("subscriber 0 saw %d events, want 6 cells + terminal", len(want))
	}
	for i, evs := range got {
		if len(evs) != len(want) {
			t.Fatalf("subscriber %d saw %d events, want %d", i, len(evs), len(want))
		}
		for k, ev := range evs {
			if ev.Seq != k+1 || ev.Type != want[k].Type || !bytes.Equal(ev.JSON, want[k].JSON) {
				t.Fatalf("subscriber %d event %d = seq %d %s, want seq %d %s", i, k, ev.Seq, ev.JSON, k+1, want[k].JSON)
			}
		}
	}
}

// doctorToRunning rewinds a completed job on disk to look interrupted:
// state back to running, artifact forgotten, checkpoint log cut to
// keepCells whole lines plus an optional torn tail fragment.
func doctorToRunning(t *testing.T, dir, id string, keepCells int, tornTail []byte) {
	t.Helper()
	metaPath := filepath.Join(dir, id, "job.json")
	var meta Meta
	if err := readJSONFile(metaPath, &meta); err != nil {
		t.Fatal(err)
	}
	meta.State = StateRunning
	meta.Artifact = ""
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(metaPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}

	ckptPath := filepath.Join(dir, id, "cells.jsonl")
	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	var keep []byte
	kept := 0
	for _, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 || kept >= keepCells {
			break
		}
		keep = append(keep, line...)
		kept++
	}
	if kept < keepCells {
		t.Fatalf("checkpoint only has %d lines, wanted to keep %d", kept, keepCells)
	}
	keep = append(keep, tornTail...)
	if err := os.WriteFile(ckptPath, keep, 0o644); err != nil {
		t.Fatal(err)
	}
}

// runToDone submits spec and returns (job id, artifact bytes).
func runToDone(t testing.TB, m *Manager, spec Spec) (string, []byte) {
	t.Helper()
	st, err := m.Submit(spec, "tc27x/default")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	data, _, err := m.Artifact(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return st.ID, data
}

// TestResumeDeterministic drives the resume contract deterministically:
// a job interrupted at every possible checkpoint depth — including with
// a torn trailing write — resumes to a byte-identical artifact.
func TestResumeDeterministic(t *testing.T) {
	store := newStore(t)
	dir := t.TempDir()
	m := open(t, dir, store)
	spec := smallSpec()
	id, want := runToDone(t, m, spec)
	closeNow(t, m)

	// Interrupt after 2 cells, with a torn half-line tail.
	doctorToRunning(t, dir, id, 2, []byte(`{"index":5,"point":{"scena`))

	m2 := open(t, dir, store)
	st := waitState(t, m2, id, StateDone)
	if st.DoneCells != 6 {
		t.Fatalf("resumed job has %d cells", st.DoneCells)
	}
	got, _, err := m2.Artifact(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("resumed artifact differs from uninterrupted artifact")
	}
	closeNow(t, m2)
}

// TestResumeFromTamperedCheckpoint: a flipped byte inside a checkpointed
// cell fails its checksum; the loader truncates there and the job still
// completes with the right artifact.
func TestResumeFromTamperedCheckpoint(t *testing.T) {
	store := newStore(t)
	dir := t.TempDir()
	m := open(t, dir, store)
	id, want := runToDone(t, m, smallSpec())
	closeNow(t, m)

	doctorToRunning(t, dir, id, 6, nil)
	ckptPath := filepath.Join(dir, id, "cells.jsonl")
	raw, err := os.ReadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a digit inside the third line's payload.
	lines := bytes.SplitAfter(raw, []byte("\n"))
	target := lines[2]
	i := bytes.Index(target, []byte("isolationCycles\":"))
	if i < 0 {
		t.Fatal("no isolationCycles in checkpoint line")
	}
	i += len("isolationCycles\":")
	target[i] = '1' + (target[i]-'0'+1)%9 // guaranteed different digit
	if err := os.WriteFile(ckptPath, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := open(t, dir, store)
	// Only the 2 lines before the tampered one survive.
	if st, err := m2.Get(id); err != nil || st.DoneCells != 2 {
		t.Fatalf("after tamper: %+v, %v", st, err)
	}
	waitState(t, m2, id, StateDone)
	got, _, err := m2.Artifact(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("artifact after tampered-checkpoint resume differs")
	}
	closeNow(t, m2)
}

// TestTamperedArtifactNeverServed: a modified or missing results file
// fails with ErrArtifactCorrupt instead of serving bad bytes.
func TestTamperedArtifactNeverServed(t *testing.T) {
	store := newStore(t)
	dir := t.TempDir()
	m := open(t, dir, store)
	defer closeNow(t, m)
	id, _ := runToDone(t, m, smallSpec())

	st, err := m.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	artPath := filepath.Join(dir, "artifacts", st.Artifact+".json")
	raw, err := os.ReadFile(artPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(artPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Artifact(id); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("tampered artifact served: %v", err)
	}

	if err := os.Remove(artPath); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Artifact(id); !errors.Is(err, ErrArtifactCorrupt) {
		t.Fatalf("missing artifact: %v", err)
	}
}

// TestCancel: DELETE semantics — a canceled job goes terminal and stays
// canceled across a restart instead of resuming.
func TestCancel(t *testing.T) {
	store := newStore(t)
	dir := t.TempDir()
	m := open(t, dir, store)
	// A slow enough grid to cancel mid-flight: default two-model cells.
	st, err := m.Submit(Spec{Grid: experiments.GridSpec{AppIterations: 2000}}, "tc27x/default")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	final := waitState(t, m, st.ID, StateCanceled)
	if final.Artifact != "" {
		t.Fatal("canceled job has an artifact")
	}
	// Cancel again: idempotent.
	if st2, err := m.Cancel(st.ID); err != nil || st2.State != StateCanceled {
		t.Fatalf("second cancel: %+v, %v", st2, err)
	}
	closeNow(t, m)

	m2 := open(t, dir, store)
	defer closeNow(t, m2)
	if got, err := m2.Get(st.ID); err != nil || got.State != StateCanceled {
		t.Fatalf("canceled job after restart: %+v, %v", got, err)
	}
}

func TestSubmitValidation(t *testing.T) {
	store := newStore(t)
	m, err := Open(Config{Dir: "", Engine: campaign.New(2), Store: store, MaxActive: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)

	// Invalid grid: typed rejection, pre-admission.
	var ge *experiments.GridError
	if _, err := m.Submit(Spec{Grid: experiments.GridSpec{Scenarios: []int{}}}, "tc27x/default"); !errors.As(err, &ge) {
		t.Fatalf("empty grid: %v", err)
	}
	if _, err := m.Submit(Spec{Grid: experiments.GridSpec{Models: []string{"nope"}}}, "tc27x/default"); err == nil {
		t.Fatal("unknown model accepted")
	}
	// Unknown base table.
	if _, err := m.Submit(Spec{Table: "nope"}, "tc27x/default"); err == nil || !strings.Contains(err.Error(), "unknown table ref") {
		t.Fatalf("unknown base table: %v", err)
	}

	// Admission bound.
	st, err := m.Submit(Spec{Grid: experiments.GridSpec{AppIterations: 2000}}, "tc27x/default")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(smallSpec(), "tc27x/default"); !errors.Is(err, ErrTooManyJobs) {
		t.Fatalf("over max-active submit: %v", err)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateCanceled)
	// Capacity freed: the next submission admits.
	st2, err := m.Submit(smallSpec(), "tc27x/default")
	if err != nil {
		t.Fatalf("post-cancel submit: %v", err)
	}
	waitState(t, m, st2.ID, StateDone)
}

// TestActiveCountAcrossManyJobs submits job after job: every round fills
// MaxActive, the next submission is refused, and once the round is
// cancelled the jobs_active gauge is back at 0 and the slots admit again.
// An interactive cell holds the engine's one slot meanwhile, so no
// background cell runs and no job can finish on its own mid-round.
func TestActiveCountAcrossManyJobs(t *testing.T) {
	const maxActive, rounds = 3, 5
	eng := campaign.New(1)
	m, err := Open(Config{Engine: eng, Store: newStore(t), MaxActive: maxActive, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	held, release := make(chan struct{}), make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock()
	go campaign.AllAt(context.Background(), eng, campaign.Interactive, []campaign.Job[struct{}]{
		func(context.Context) (struct{}, error) { close(held); <-release; return struct{}{}, nil },
	})
	<-held

	for r := 0; r < rounds; r++ {
		var ids []string
		for i := 0; i < maxActive; i++ {
			st, err := m.Submit(smallSpec(), "tc27x/default")
			if err != nil {
				t.Fatalf("round %d submit %d: %v", r, i, err)
			}
			ids = append(ids, st.ID)
		}
		if got := mActive.Value(); got != maxActive {
			t.Fatalf("round %d: jobs_active = %d, want %d", r, got, maxActive)
		}
		if _, err := m.Submit(smallSpec(), "tc27x/default"); !errors.Is(err, ErrTooManyJobs) {
			t.Fatalf("round %d: over max-active submit: %v", r, err)
		}
		for _, id := range ids {
			if _, err := m.Cancel(id); err != nil {
				t.Fatal(err)
			}
			waitState(t, m, id, StateCanceled)
		}
		if got := mActive.Value(); got != 0 {
			t.Fatalf("round %d: jobs_active = %d after cancelling, want 0", r, got)
		}
	}
	unblock()
	st, err := m.Submit(smallSpec(), "tc27x/default")
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, st.ID, StateDone)
	if got := mActive.Value(); got != 0 {
		t.Fatalf("jobs_active = %d after the last job finished, want 0", got)
	}
	if n := len(m.List()); n != rounds*maxActive+1 {
		t.Fatalf("%d jobs retained, want %d", n, rounds*maxActive+1)
	}
}

// TestInMemoryManager: Dir-less managers serve artifacts from memory.
func TestInMemoryManager(t *testing.T) {
	store := newStore(t)
	m, err := Open(Config{Engine: campaign.New(4), Store: store, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer closeNow(t, m)
	id, data := runToDone(t, m, smallSpec())
	if want := referenceArtifact(t, store, smallSpec()); !bytes.Equal(data, want) {
		t.Fatal("in-memory artifact differs")
	}
	if _, err := m.Get(id); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointLoader unit-drives the job's own record check: a
// checksummed record whose index lies outside the grid ends the verified
// prefix. (Torn and tampered lines are internal/store's tests.)
func TestCheckpointLoader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	raw, err := json.Marshal(experiments.PointJSON{Scenario: 1, Level: "H-Load", IsolationCycles: 42})
	if err != nil {
		t.Fatal(err)
	}
	log, err := store.OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for idx := int64(0); idx < 2; idx++ {
		if err := log.Append(idx, raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// Out-of-range index: rejected.
	load, err := loadCheckpoint(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(load.points) != 1 || load.dropped == 0 {
		t.Fatalf("out-of-range load: %+v", load)
	}
}

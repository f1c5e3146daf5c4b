package store_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/tabstore"
)

// testdata/legacy is a wcetd -data directory written by the daemon as it
// was before this package existed, when checkpoint lines were spelled
// {"index","point","sum"}. It holds the TC27x table and ref, two jobs over
// one 18-cell grid — one done with its artifact, one killed with kill -9
// after four cells and then given a torn fifth line — and the metrics
// history tiers and three stored traces of that daemon. The expected
// figures below are what that daemon's own code loaded from it.
const (
	doneJob    = "j-bc1c283ac42765d8"
	runningJob = "j-6336f8b0117bb87e"
	artifactID = "ddd2bf36486c9d8057f6ef81a0ae3ba96c76bcb46a283a5a89eda765864de7d9"
	// SHA-256 of the JSON-encoded event replay of the done job, and of
	// the four events the running job restores from its checkpoint.
	doneEventsSum     = "9877b6b3632b5f649fa7d98dc2895bf2a4401c2d1651aa7766b9f6f1116e23bb"
	restoredEventsSum = "b0103175bb0f2c8fa5783ac5393023905d95f7807a87025ad29882df92766112"
	historySeries     = 103
	historyPoints     = 7
	storedTraces      = 3
)

// copyTree copies the fixture so the test can resume jobs in it.
func copyTree(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}

// eventsSum hashes events as json.Marshal encodes a []jobs.Event: each
// event's JSON, comma-separated, in brackets.
func eventsSum(events [][]byte) string {
	h := sha256.New()
	h.Write([]byte{'['})
	for i, ev := range events {
		if i > 0 {
			h.Write([]byte{','})
		}
		h.Write(ev)
	}
	h.Write([]byte{']'})
	return hex.EncodeToString(h.Sum(nil))
}

// replay returns the JSON of every event of a finished job's stream.
func replay(t *testing.T, m *jobs.Manager, id string) [][]byte {
	t.Helper()
	st, err := m.Subscribe(id, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var starts []int
	b, ended := st.AppendFrames(nil, func(b []byte, _ int, _ string) []byte {
		starts = append(starts, len(b))
		return b
	}, "")
	if !ended {
		t.Fatalf("job %s has not finished", id)
	}
	events := make([][]byte, len(starts))
	for i, start := range starts {
		end := len(b)
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		events[i] = b[start:end]
	}
	return events
}

// TestLegacyDataDir opens a copy of the legacy data directory: the done
// job's events and artifact load unchanged, the running job resumes past
// its torn line to the byte-identical artifact, and the metrics history
// and stored traces load as many entries as before.
func TestLegacyDataDir(t *testing.T) {
	dir := copyTree(t, filepath.Join("testdata", "legacy"))
	want, err := os.ReadFile(filepath.Join(dir, "jobs", "artifacts", artifactID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	tables, err := tabstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := jobs.Open(jobs.Config{Dir: filepath.Join(dir, "jobs"), Engine: campaign.New(2), Store: tables,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close(context.Background())

	if got := eventsSum(replay(t, m, doneJob)); got != doneEventsSum {
		t.Errorf("done job's events changed: digest %s, want %s", got, doneEventsSum)
	}
	deadline := time.Now().Add(60 * time.Second)
	for _, id := range []string{doneJob, runningJob} {
		for {
			st, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			if st.State.Terminal() {
				if st.State != jobs.StateDone || st.DoneCells != 18 {
					t.Fatalf("job %s ended %s with %d cells (%s)", id, st.State, st.DoneCells, st.Error)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck at %d cells", id, st.DoneCells)
			}
			time.Sleep(5 * time.Millisecond)
		}
		got, gotID, err := m.Artifact(id)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != artifactID || string(got) != string(want) {
			t.Errorf("job %s artifact %s differs from the legacy artifact", id, gotID)
		}
	}
	if events := replay(t, m, runningJob); len(events) != 19 {
		t.Errorf("resumed job has %d events, want 18 cells + 1 state", len(events))
	} else if got := eventsSum(events[:4]); got != restoredEventsSum {
		t.Errorf("restored events changed: digest %s, want %s", got, restoredEventsSum)
	}
	// The torn line was cut before appends resumed: the mixed-spelling
	// checkpoint now reads back whole.
	recs, _, dropped, err := store.Read(filepath.Join(dir, "jobs", runningJob, "cells.jsonl"), nil)
	if err != nil || len(recs) != 18 || dropped != 0 {
		t.Errorf("resumed checkpoint reads %d records, dropped %d, %v", len(recs), dropped, err)
	}

	db, err := obs.OpenTSDB(filepath.Join(dir, "obs", "metrics"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n, pts := len(db.Series()), len(db.Query("*", 0, 0, 0)); n != historySeries || pts != historyPoints || db.Dropped != 0 {
		t.Errorf("history: %d series, %d points, %d dropped; want %d, %d, 0", n, pts, db.Dropped, historySeries, historyPoints)
	}
	ts, err := obs.OpenTraceStore(filepath.Join(dir, "obs", "traces"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close()
	if ts.Len() != storedTraces || ts.Dropped != 0 {
		t.Errorf("traces: %d stored, %d dropped; want %d, 0", ts.Len(), ts.Dropped, storedTraces)
	}
}

package service

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/wcet"
)

// campaignSpec is the small multi-cell grid the campaign tests submit:
// 2 scenarios x 3 levels, ftc only, short app window — 6 cells.
func campaignSpec() jobs.Spec {
	return jobs.Spec{Grid: experiments.GridSpec{
		Scenarios:     []int{1, 2},
		Levels:        []string{"H-Load", "M-Load", "L-Load"},
		Models:        []string{"ftc"},
		AppIterations: 60,
	}}
}

// campaignPoints computes, fully in-process and uninterrupted, the
// points of spec's grid in grid order.
func campaignPoints(t testing.TB, srv *Server, spec jobs.Spec) []experiments.PointJSON {
	t.Helper()
	grid, err := spec.Grid.Compile(srv.TableStore(), wcet.DefaultRegistry())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := experiments.NewRunner(nil).Sweep(context.Background(), wcet.TC27x(), grid)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.WirePoints(pts)
}

// campaignReference computes the artifact bytes the server must serve
// for spec: the byte-identity oracle for the wire and restart paths.
func campaignReference(t testing.TB, srv *Server, spec jobs.Spec) []byte {
	t.Helper()
	data, err := experiments.EncodeArtifact(campaignPoints(t, srv, spec))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func submitCampaign(t testing.TB, base string, spec jobs.Spec) jobs.Status {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	status, resp := post(t, base+"/v2/campaigns", body)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, resp)
	}
	var st jobs.Status
	if err := json.Unmarshal(resp, &st); err != nil {
		t.Fatalf("submit: decoding %s: %v", resp, err)
	}
	if st.ID == "" {
		t.Fatalf("submit: empty job id in %s", resp)
	}
	return st
}

func campaignStatus(t testing.TB, base, id string) (jobs.Status, int) {
	t.Helper()
	resp, err := http.Get(base + "/v2/campaigns/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var st jobs.Status
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("status: decoding %s: %v", raw, err)
		}
	}
	return st, resp.StatusCode
}

// waitCampaign polls until the job reaches a terminal state.
func waitCampaign(t testing.TB, base, id string) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		st, code := campaignStatus(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("status: HTTP %d", code)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %q (%d/%d cells)", id, st.State, st.DoneCells, st.TotalCells)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	ID    string
	Event string
	Data  string
}

// readSSE parses server-sent events from r until the stream ends or
// limit events arrive (limit <= 0 reads to EOF).
func readSSE(t testing.TB, r io.Reader, limit int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			if cur.Event != "" || cur.Data != "" || cur.ID != "" {
				events = append(events, cur)
				cur = sseEvent{}
				if limit > 0 && len(events) >= limit {
					return events
				}
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			cur.ID = strings.TrimPrefix(line, "id: ")
		case strings.HasPrefix(line, "event: "):
			cur.Event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.Data = strings.TrimPrefix(line, "data: ")
		}
	}
	return events
}

// TestCampaignEndToEnd submits a multi-cell campaign over the wire,
// waits for completion, and checks the served artifact is byte-identical
// to an uninterrupted in-process sweep of the same grid.
func TestCampaignEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	spec := campaignSpec()
	want := campaignReference(t, srv, spec)

	st := submitCampaign(t, ts.URL, spec)
	if st.TotalCells != 6 {
		t.Fatalf("TotalCells = %d, want 6", st.TotalCells)
	}
	if st.BaseTable != string(srv.servingID()) {
		t.Fatalf("BaseTable = %q, want serving table %q", st.BaseTable, srv.servingID())
	}

	final := waitCampaign(t, ts.URL, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("state = %q (%s), want done", final.State, final.Error)
	}
	if final.DoneCells != final.TotalCells {
		t.Fatalf("DoneCells = %d, want %d", final.DoneCells, final.TotalCells)
	}

	resp, err := http.Get(ts.URL + "/v2/campaigns/" + st.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: HTTP %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("artifact differs from in-process sweep:\n got: %s\nwant: %s", got, want)
	}
	sum := sha256.Sum256(got)
	if etag := resp.Header.Get("ETag"); etag != `"`+hex.EncodeToString(sum[:])+`"` {
		t.Fatalf("ETag %q is not the artifact content address", etag)
	}
	if final.Artifact != hex.EncodeToString(sum[:]) {
		t.Fatalf("status artifact id %q != content address %s", final.Artifact, hex.EncodeToString(sum[:]))
	}

	// The job shows up in the listing.
	listResp, err := http.Get(ts.URL + "/v2/campaigns")
	if err != nil {
		t.Fatal(err)
	}
	defer listResp.Body.Close()
	var list V2CampaignList
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	foundListed := false
	for _, item := range list.Campaigns {
		if item.ID == st.ID {
			foundListed = true
		}
	}
	if !foundListed {
		t.Fatalf("job %s missing from listing %+v", st.ID, list.Campaigns)
	}
}

// TestCampaignSubmitRejections checks that grid validation runs before
// admission and maps onto client errors.
func TestCampaignSubmitRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"unknown level", `{"grid":{"levels":["X-Load"]}}`, http.StatusBadRequest},
		{"empty levels dimension", `{"grid":{"levels":[]}}`, http.StatusBadRequest},
		{"unknown model", `{"grid":{"models":["nope"]}}`, http.StatusBadRequest},
		{"unknown field", `{"grid":{"bogus":1}}`, http.StatusBadRequest},
		{"unknown base table", `{"grid":{},"table":"no/such/ref"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		status, resp := post(t, ts.URL+"/v2/campaigns", []byte(tc.body))
		if status != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.want, resp)
		}
	}
	if _, code := campaignStatus(t, ts.URL, "j-doesnotexist"); code != http.StatusNotFound {
		t.Errorf("unknown job status: HTTP %d, want 404", code)
	}
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v2/campaigns/j-doesnotexist", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job delete: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestCampaignStreamReplay runs a campaign to completion and checks the
// SSE stream: a fresh subscription replays the full numbered event log
// and ends with the terminal event; a Last-Event-ID reconnect replays
// exactly the missed suffix.
func TestCampaignStreamReplay(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := submitCampaign(t, ts.URL, campaignSpec())
	waitCampaign(t, ts.URL, st.ID)

	streamURL := ts.URL + "/v2/campaigns/" + st.ID + "/stream"
	resp, err := http.Get(streamURL)
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(events) != 7 {
		t.Fatalf("got %d events, want 7 (6 cells + terminal): %+v", len(events), events)
	}
	for i, ev := range events {
		if ev.ID != strconv.Itoa(i+1) {
			t.Fatalf("event %d has id %q, want %d", i, ev.ID, i+1)
		}
		wantType := "cell"
		if i == 6 {
			wantType = "state"
		}
		if ev.Event != wantType {
			t.Fatalf("event %d has type %q, want %q", i, ev.Event, wantType)
		}
	}
	var terminal jobs.Event
	if err := json.Unmarshal([]byte(events[6].Data), &terminal); err != nil {
		t.Fatal(err)
	}
	if terminal.State != jobs.StateDone || terminal.Done != 6 || terminal.Total != 6 {
		t.Fatalf("terminal event %+v, want done 6/6", terminal)
	}

	// Reconnect with Last-Event-ID: 4 — replay must start at seq 5.
	req, err := http.NewRequest(http.MethodGet, streamURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", "4")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	tail := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(tail) != 3 || tail[0].ID != "5" || tail[2].Event != "state" {
		t.Fatalf("Last-Event-ID replay = %+v, want events 5..7", tail)
	}

	// Query-parameter fallback for clients that cannot set the header.
	resp, err = http.Get(streamURL + "?lastEventId=6")
	if err != nil {
		t.Fatal(err)
	}
	tail = readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(tail) != 1 || tail[0].Event != "state" {
		t.Fatalf("lastEventId=6 replay = %+v, want only terminal event", tail)
	}

	// Malformed resume position is a client error, not a stream.
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad Last-Event-ID: HTTP %d, want 400", resp.StatusCode)
	}
}

// hogEngine occupies one interactive engine slot until release is
// closed; it returns once the slot is held.
func hogEngine(t testing.TB, eng *campaign.Engine) (release func()) {
	t.Helper()
	acquired := make(chan struct{})
	releaseCh := make(chan struct{})
	go campaign.All(context.Background(), eng, []campaign.Job[struct{}]{
		func(ctx context.Context) (struct{}, error) {
			close(acquired)
			<-releaseCh
			return struct{}{}, nil
		},
	})
	select {
	case <-acquired:
	case <-time.After(30 * time.Second):
		t.Fatal("hog job never acquired an engine slot")
	}
	var once bool
	return func() {
		if !once {
			once = true
			close(releaseCh)
		}
	}
}

// TestCampaignStreamDrainOnShutdown opens a progress stream on a job
// that cannot make progress (the engine is fully occupied by interactive
// work) and checks graceful shutdown ends the stream with a drain event
// instead of holding the drain hostage or faking a terminal state.
func TestCampaignStreamDrainOnShutdown(t *testing.T) {
	eng := campaign.New(1)
	srv := New(Config{}, eng)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	release := hogEngine(t, eng)
	defer release()

	st := submitCampaign(t, ts.URL, campaignSpec())

	resp, err := http.Get(ts.URL + "/v2/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	got := make(chan []sseEvent, 1)
	go func() { got <- readSSE(t, resp.Body, 1) }()

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown with open campaign stream: %v", err)
	}
	select {
	case events := <-got:
		if len(events) != 1 || events[0].Event != "drain" {
			t.Fatalf("stream ended with %+v, want a single drain event", events)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end after shutdown")
	}
}

// TestCampaignResumeAcrossRestart is the service-level durability test:
// a campaign submitted over the wire is interrupted by a graceful
// daemon shutdown mid-job, a new server over the same jobs directory
// resumes it from the checkpoint, the SSE stream resumes across the
// restart via Last-Event-ID, and the final artifact is byte-identical
// to an uninterrupted in-process sweep.
func TestCampaignResumeAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	spec := campaignSpec()
	// Extra perturbation cells widen the window between "some cells
	// checkpointed" and "job done" so the shutdown lands mid-job.
	spec.Grid.Perturbations = []experiments.PerturbationSpec{
		{},
		{Name: "up10", ScalePercent: 110},
		{Name: "up20", ScalePercent: 120},
		{Name: "down10", ScalePercent: 90},
	}

	engA := campaign.New(1)
	srvA := New(Config{JobsDir: dir}, engA)
	tsA := httptest.NewServer(srvA.Handler())
	want := campaignReference(t, srvA, spec)

	st := submitCampaign(t, tsA.URL, spec)
	if st.TotalCells != 24 {
		t.Fatalf("TotalCells = %d, want 24", st.TotalCells)
	}

	// Wait for partial progress, then take the engine's only slot with
	// interactive work: background cells park, so the job is guaranteed
	// still running when shutdown begins.
	deadline := time.Now().Add(120 * time.Second)
	for {
		cur, code := campaignStatus(t, tsA.URL, st.ID)
		if code != http.StatusOK {
			t.Fatalf("status: HTTP %d", code)
		}
		if cur.State.Terminal() {
			t.Fatalf("job finished (state %q) before the test could interrupt it", cur.State)
		}
		if cur.DoneCells >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job made no progress")
		}
	}
	release := hogEngine(t, engA)

	shutdownCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srvA.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("shutdown mid-job: %v", err)
	}
	tsA.Close()
	release()

	// Restart over the same jobs directory: the job resumes from its
	// checkpoint and runs to completion.
	srvB := New(Config{JobsDir: dir}, nil)
	tsB := httptest.NewServer(srvB.Handler())
	defer tsB.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srvB.Shutdown(ctx)
	}()

	restored, code := campaignStatus(t, tsB.URL, st.ID)
	if code != http.StatusOK {
		t.Fatalf("restored status: HTTP %d", code)
	}
	if restored.State.Terminal() && restored.State != jobs.StateDone {
		t.Fatalf("restored job in state %q", restored.State)
	}
	checkpointed := restored.DoneCells
	if checkpointed == 0 {
		t.Fatal("no checkpointed cells survived the restart")
	}
	t.Logf("restart restored %d/%d cells from checkpoint", checkpointed, restored.TotalCells)

	// SSE resume across the restart: subscribing after the last event
	// seen before shutdown replays only the missing suffix.
	resp, err := http.Get(tsB.URL + "/v2/campaigns/" + st.ID + "/stream?lastEventId=" + strconv.Itoa(checkpointed))
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp.Body, 0)
	resp.Body.Close()
	if len(events) != (24-checkpointed)+1 {
		t.Fatalf("resumed stream replayed %d events, want %d cells + terminal", len(events), 24-checkpointed)
	}
	if first := events[0]; first.ID != strconv.Itoa(checkpointed+1) {
		t.Fatalf("resumed stream starts at id %q, want %d", first.ID, checkpointed+1)
	}
	if last := events[len(events)-1]; last.Event != "state" {
		t.Fatalf("resumed stream ended with %+v, want terminal state event", last)
	}

	final := waitCampaign(t, tsB.URL, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("resumed job state = %q (%s), want done", final.State, final.Error)
	}

	artResp, err := http.Get(tsB.URL + "/v2/campaigns/" + st.ID + "/artifact")
	if err != nil {
		t.Fatal(err)
	}
	defer artResp.Body.Close()
	got, err := io.ReadAll(artResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if artResp.StatusCode != http.StatusOK {
		t.Fatalf("artifact: HTTP %d: %s", artResp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed artifact differs from uninterrupted sweep:\n got: %s\nwant: %s", got, want)
	}
	// Past net/http's 2 KB buffer the length is the handler's to declare.
	if artResp.ContentLength != int64(len(got)) || len(got) <= 2048 {
		t.Fatalf("artifact Content-Length %d for %d bytes, want it declared", artResp.ContentLength, len(got))
	}
}

// TestCampaignCancelOverWire cancels a parked job via DELETE and checks
// the cancellation is terminal and idempotent.
func TestCampaignCancelOverWire(t *testing.T) {
	eng := campaign.New(1)
	srv := New(Config{}, eng)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	release := hogEngine(t, eng)
	defer release()

	st := submitCampaign(t, ts.URL, campaignSpec())
	del := func() (jobs.Status, int) {
		req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v2/campaigns/"+st.ID, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var out jobs.Status
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("decoding %s: %v", raw, err)
			}
		}
		return out, resp.StatusCode
	}
	if _, code := del(); code != http.StatusOK {
		t.Fatalf("cancel: HTTP %d", code)
	}
	final := waitCampaign(t, ts.URL, st.ID)
	if final.State != jobs.StateCanceled {
		t.Fatalf("state after DELETE = %q, want canceled", final.State)
	}
	if again, code := del(); code != http.StatusOK || again.State != jobs.StateCanceled {
		t.Fatalf("second DELETE: HTTP %d state %q, want 200 canceled", code, again.State)
	}
}

// flushCounter counts the flushes a handler makes on its response.
type flushCounter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (f flushCounter) Flush() {
	f.n.Add(1)
	f.ResponseWriter.(http.Flusher).Flush()
}

// countFlushes serves h, counting every response flush into n.
func countFlushes(h http.Handler, n *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(flushCounter{w, n}, r)
	})
}

// getStream reads a campaign stream's whole body, resuming after
// afterSeq when it is positive.
func getStream(t testing.TB, c *http.Client, url string, afterSeq int) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if afterSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(afterSeq))
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: HTTP %d, %v", resp.StatusCode, err)
	}
	return body
}

// TestCampaignStreamBytes checks the stream's wire bytes against frames
// built the way every event used to be sent: json.Marshal of a
// jobs.Event made from the in-process reference points, framed with
// fmt. Only the cells' completion order is read from the served stream.
// It covers a job streamed live, its full replay once finished (one
// flush), and the replay after every Last-Event-ID.
func TestCampaignStreamBytes(t *testing.T) {
	eng := campaign.New(1)
	srv := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, eng)
	var flushes atomic.Int64
	ts := httptest.NewServer(countFlushes(srv.Handler(), &flushes))
	defer ts.Close()
	spec := campaignSpec()
	ref := campaignPoints(t, srv, spec)

	// Park the job until its stream is open, so every event goes out live.
	release := hogEngine(t, eng)
	defer release()
	st := submitCampaign(t, ts.URL, spec)
	url := ts.URL + "/v2/campaigns/" + st.ID + "/stream"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	release()
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	final := waitCampaign(t, ts.URL, st.ID)

	served := readSSE(t, bytes.NewReader(live), 0)
	n := len(ref)
	if len(served) != n+1 {
		t.Fatalf("live stream has %d events, want %d cells + terminal", len(served), n)
	}
	var want []string
	for i, ev := range served[:n] {
		var got jobs.Event
		if err := json.Unmarshal([]byte(ev.Data), &got); err != nil {
			t.Fatal(err)
		}
		if got.Index < 0 || got.Index >= n {
			t.Fatalf("event %d names cell %d of %d", i+1, got.Index, n)
		}
		want = append(want, oldFrame(t, jobs.Event{
			Seq: i + 1, Type: "cell", Index: got.Index,
			Done: i + 1, Total: n, Point: &ref[got.Index],
		}))
	}
	want = append(want, oldFrame(t, jobs.Event{
		Seq: n + 1, Type: "state", Done: n, Total: n,
		State: jobs.StateDone, Artifact: final.Artifact,
	}))
	if got := string(live); got != strings.Join(want, "") {
		t.Fatalf("live stream bytes differ:\n got: %q\nwant: %q", got, strings.Join(want, ""))
	}

	for after := 0; after <= n+1; after++ {
		before := flushes.Load()
		got := string(getStream(t, http.DefaultClient, url, after))
		if w := strings.Join(want[min(after, n+1):], ""); got != w {
			t.Fatalf("replay after %d differs:\n got: %q\nwant: %q", after, got, w)
		}
		if f := flushes.Load() - before; f != 1 {
			t.Fatalf("replay after %d took %d flushes, want 1", after, f)
		}
	}
}

// oldFrame frames ev as the stream did before events were encoded once.
func oldFrame(t *testing.T, ev jobs.Event) string {
	t.Helper()
	data, err := json.Marshal(ev)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
}

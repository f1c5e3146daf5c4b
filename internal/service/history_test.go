package service

import (
	"bytes"
	"context"
	"net/http"
	"testing"
	"time"

	"repro/internal/obs"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t testing.TB, d time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	return cond()
}

func TestMetricsHistoryEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{HistoryInterval: 30 * time.Millisecond})

	// Traffic, then enough sampling ticks to retain it.
	if status, _ := post(t, ts.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0))); status != http.StatusOK {
		t.Fatalf("warmup request status %d", status)
	}
	var hist historyResponse
	ok := waitFor(t, 5*time.Second, func() bool {
		getJSON(t, ts.URL+"/v2/metrics/history?series=wcetd_requests_total*", &hist)
		return len(hist.Points) >= 2
	})
	if !ok {
		t.Fatalf("history never filled: %+v", hist)
	}
	if hist.Points[len(hist.Points)-1].V < 1 {
		t.Fatalf("request counter not in history: %+v", hist.Points)
	}

	// No series parameter: list the retained names.
	var list struct {
		Series []string `json:"series"`
	}
	if status := getJSON(t, ts.URL+"/v2/metrics/history", &list); status != http.StatusOK {
		t.Fatalf("list status %d", status)
	}
	if len(list.Series) == 0 {
		t.Fatal("series list empty")
	}

	// Malformed range parameters are 400s.
	for _, q := range []string{"from=abc", "to=-5", "step=x"} {
		if status := getJSON(t, ts.URL+"/v2/metrics/history?series=a&"+q, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, status)
		}
	}
}

// TestAlertsEndpointRetired pins that /v2/alerts is not served: the
// daemon evaluates no SLOs, so the path is a 404, not an empty list.
func TestAlertsEndpointRetired(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status := getJSON(t, ts.URL+"/v2/alerts", nil); status != http.StatusNotFound {
		t.Fatalf("GET /v2/alerts: status %d, want 404", status)
	}
}

func TestTraceTailSamplingAndSearch(t *testing.T) {
	// A 1ns slow threshold tail-samples every traceable request without
	// any client opt-in.
	_, ts := newTestServer(t, Config{SlowRequestThreshold: time.Nanosecond})

	if status, _ := post(t, ts.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0))); status != http.StatusOK {
		t.Fatal("request failed")
	}
	var found tracesResponse
	ok := waitFor(t, 2*time.Second, func() bool {
		getJSON(t, ts.URL+"/v2/traces?endpoint=v1_wcet", &found)
		return len(found.Traces) >= 1
	})
	if !ok {
		t.Fatalf("tail-sampled trace never stored: %+v", found)
	}
	sum := found.Traces[0]
	if sum.Sampled != "slow" {
		t.Fatalf("sampled = %q, want slow", sum.Sampled)
	}

	// Retrieval by ID returns the span tree.
	var st obs.StoredTrace
	if status := getJSON(t, ts.URL+"/v2/traces/"+sum.ID, &st); status != http.StatusOK {
		t.Fatalf("get by id status %d", status)
	}
	if st.Trace == nil || st.Trace.Root == nil || st.Trace.Root.Name != "v1_wcet" {
		t.Fatalf("stored trace = %+v", st)
	}
	if status := getJSON(t, ts.URL+"/v2/traces/doesnotexist", nil); status != http.StatusNotFound {
		t.Fatalf("missing trace status %d, want 404", status)
	}

	// Filters validate.
	for _, q := range []string{"min_ms=abc", "since=-1", "limit=0"} {
		if status := getJSON(t, ts.URL+"/v2/traces?"+q, nil); status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, status)
		}
	}
}

func TestTraceHeaderRequestStored(t *testing.T) {
	_, ts := newTestServer(t, Config{SlowRequestThreshold: -1})
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/wcet",
		bytes.NewReader(encodeRequest(t, sampleRequest(0))))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	id := resp.Header.Get(TraceIDHeader)
	if id == "" {
		t.Fatal("no trace id header")
	}
	var st obs.StoredTrace
	ok := waitFor(t, 2*time.Second, func() bool {
		return getJSON(t, ts.URL+"/v2/traces/"+id, &st) == http.StatusOK
	})
	if !ok {
		t.Fatalf("header-requested trace %s not stored", id)
	}
	if st.Sampled != "header" {
		t.Fatalf("sampled = %q, want header", st.Sampled)
	}
}

// TestObservabilitySurvivesRestart proves the durability contract at the
// service level: metrics history and stored traces written by one server
// are served by the next one opened over the same ObsDir.
func TestObservabilitySurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		ObsDir:               dir,
		HistoryInterval:      30 * time.Millisecond,
		SlowRequestThreshold: time.Nanosecond,
	}
	srvA, tsA := newTestServer(t, cfg)
	if status, _ := post(t, tsA.URL+"/v1/wcet", encodeRequest(t, sampleRequest(0))); status != http.StatusOK {
		t.Fatal("request failed")
	}
	var hist historyResponse
	if !waitFor(t, 5*time.Second, func() bool {
		getJSON(t, tsA.URL+"/v2/metrics/history?series=wcetd_requests_total*", &hist)
		return len(hist.Points) >= 2
	}) {
		t.Fatal("history never filled")
	}
	var found tracesResponse
	if !waitFor(t, 2*time.Second, func() bool {
		getJSON(t, tsA.URL+"/v2/traces", &found)
		return len(found.Traces) >= 1
	}) {
		t.Fatal("trace never stored")
	}
	traceID := found.Traces[0].ID
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srvA.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// Second server over the same dir: pre-restart history and traces
	// must be queryable before it has sampled anything itself.
	srvB, tsB := newTestServer(t, Config{
		ObsDir:          dir,
		HistoryInterval: time.Hour, // no new samples during the test
	})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srvB.Shutdown(ctx)
	}()
	var hist2 historyResponse
	getJSON(t, tsB.URL+"/v2/metrics/history?series=wcetd_requests_total*", &hist2)
	if len(hist2.Points) < 2 {
		t.Fatalf("replayed history has %d points, want >= 2", len(hist2.Points))
	}
	var st obs.StoredTrace
	if status := getJSON(t, tsB.URL+"/v2/traces/"+traceID, &st); status != http.StatusOK {
		t.Fatalf("pre-restart trace %s: status %d", traceID, status)
	}
}

func TestHealthzReportsBuildAndUptime(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var hp healthPayload
	if status := getJSON(t, ts.URL+"/healthz", &hp); status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if hp.Status != "ok" {
		t.Fatalf("status = %q", hp.Status)
	}
	if hp.GoVersion == "" || hp.Version == "" || hp.Revision == "" {
		t.Fatalf("build fields empty: %+v", hp)
	}
	if hp.UptimeSeconds < 0 {
		t.Fatalf("uptime = %d", hp.UptimeSeconds)
	}
}

func TestParseStreamInterval(t *testing.T) {
	cases := []struct {
		q       string
		want    time.Duration
		wantErr bool
	}{
		{"", time.Second, false},
		{"1000", time.Second, false},
		{"50", 100 * time.Millisecond, false}, // floor clamp
		{"3600000", 60 * time.Second, false},  // ceiling clamp
		{"60000", 60 * time.Second, false},    // at the ceiling
		{"abc", 0, true},
		{"0", 0, true},
		{"-5", 0, true},
		{"1.5", 0, true},
	}
	for _, c := range cases {
		got, err := parseStreamInterval(c.q)
		if c.wantErr != (err != nil) {
			t.Errorf("%q: err = %v, wantErr %v", c.q, err, c.wantErr)
			continue
		}
		if !c.wantErr && got != c.want {
			t.Errorf("%q: %v, want %v", c.q, got, c.want)
		}
	}
}

func TestStatsStreamRejectsBadInterval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, q := range []string{"interval=abc", "interval=bogus", "interval=0", "interval=-100", "interval=1e3"} {
		resp, err := http.Get(ts.URL + "/v2/stats/stream?" + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

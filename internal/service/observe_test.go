package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// scrape fetches /metrics and returns the exposition text.
func scrape(t testing.TB, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// metricValue extracts one sample line's value from exposition text.
func metricValue(t testing.TB, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, series+" ")
		if !ok {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
			t.Fatalf("parsing %q: %v", line, err)
		}
		return v
	}
	t.Fatalf("series %q not found in /metrics", series)
	return 0
}

// TestMetricsEndpoint drives known traffic and asserts the Prometheus
// exposition covers every instrumented layer with the right values.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := encodeRequest(t, sampleRequest(0))
	for i := 0; i < 2; i++ {
		if status, out := post(t, ts.URL+"/v1/wcet", body); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
	}

	text := scrape(t, ts.URL)

	if got := metricValue(t, text, `wcetd_requests_total{endpoint="v1_wcet"}`); got != 2 {
		t.Errorf("v1_wcet requests = %g, want 2", got)
	}
	if got := metricValue(t, text, "wcetd_cache_hits_total"); got != 1 {
		t.Errorf("cache hits = %g, want 1 (second request repeats the first)", got)
	}
	if got := metricValue(t, text, "wcetd_cache_misses_total"); got != 1 {
		t.Errorf("cache misses = %g, want 1", got)
	}
	if got := metricValue(t, text, `wcetd_request_seconds_count{endpoint="v1_wcet"}`); got != 2 {
		t.Errorf("latency observations = %g, want 2", got)
	}

	// Process-wide series from the deeper layers must be present: the
	// analyzer, the ILP/LP solver stack, the campaign engine, the table
	// store and the calibration engine. (Their values accumulate across
	// the whole test process, so presence — not exact counts — is the
	// contract here.)
	for _, name := range []string{
		"analyzer_estimates_total",
		"analyzer_solve_seconds",
		"solver_ilp_solves_total",
		"solver_warm_starts_total",
		"solver_cold_solves_total",
		"solver_pivots_total",
		"solver_bb_nodes_total",
		"campaign_cells_total",
		"tabstore_registrations_total",
		"calib_batches_total",
	} {
		if !strings.Contains(text, "# TYPE "+name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}

	// Exposition syntax spot-checks: HELP precedes TYPE, histograms carry
	// +Inf buckets.
	if !strings.Contains(text, "# HELP wcetd_requests_total ") {
		t.Error("missing HELP line for wcetd_requests_total")
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Error("histogram exposition missing +Inf bucket")
	}
	if strings.Contains(text, "NaN") {
		t.Error("exposition contains NaN")
	}
}

// TestMetricsMethodNotAllowed pins GET-only.
func TestMetricsMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/metrics", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics status %d, want 405", resp.StatusCode)
	}
}

// TestTraceEnvelope pins the X-Wcet-Trace contract: without the header the
// body is byte-identical to an untraced response; with it, the same bytes
// arrive inside {"response": ..., "trace": ...} and the span tree walks
// admission → evaluate → model solves, with solver attrs on the ILP span.
func TestTraceEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := encodeRequest(t, sampleRequest(3))

	_, plain := post(t, ts.URL+"/v1/wcet", body)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/wcet", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(TraceHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("traced request status %d", resp.StatusCode)
	}
	if resp.Header.Get(TraceIDHeader) == "" {
		t.Errorf("missing %s response header", TraceIDHeader)
	}

	var env struct {
		Response json.RawMessage      `json:"response"`
		Trace    *telemetry.TraceJSON `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Trace == nil || env.Trace.Root == nil {
		t.Fatal("traced response carries no trace")
	}
	if !bytes.Equal(bytes.TrimSpace(env.Response), bytes.TrimSpace(plain)) {
		t.Errorf("envelope response differs from untraced body\nenvelope: %s\nplain: %s", env.Response, plain)
	}
	if env.Trace.ID != resp.Header.Get(TraceIDHeader) {
		t.Errorf("trace ID %q != header %q", env.Trace.ID, resp.Header.Get(TraceIDHeader))
	}
	if env.Trace.Root.Name != "v1_wcet" {
		t.Errorf("root span %q, want v1_wcet", env.Trace.Root.Name)
	}

	// Walk the tree: this request is a cache hit (the plain request above
	// populated it), so expect the cache span with hit=true. Re-send a
	// fresh variant to see the evaluate path.
	names := spanNames(env.Trace.Root)
	if !names["cache"] {
		t.Errorf("trace lacks cache span: %v", names)
	}

	fresh := encodeRequest(t, sampleRequest(4))
	req2, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/wcet", bytes.NewReader(fresh))
	req2.Header.Set("Content-Type", "application/json")
	req2.Header.Set(TraceHeader, "1")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var env2 struct {
		Trace *telemetry.TraceJSON `json:"trace"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	names2 := spanNames(env2.Trace.Root)
	for _, want := range []string{"admission", "evaluate", "validate", "model:ftc", "model:ilpPtac"} {
		if !names2[want] {
			t.Errorf("miss-path trace lacks %q span: %v", want, names2)
		}
	}
	ilpSpan := findSpan(env2.Trace.Root, "model:ilpPtac")
	if ilpSpan == nil {
		t.Fatal("no ilpPtac span")
	}
	for _, attr := range []string{"nodes", "warmStarts", "cached"} {
		if _, ok := ilpSpan.Attrs[attr]; !ok {
			t.Errorf("ilpPtac span missing %q attr: %v", attr, ilpSpan.Attrs)
		}
	}
}

func spanNames(root *telemetry.SpanJSON) map[string]bool {
	names := make(map[string]bool)
	var walk func(*telemetry.SpanJSON)
	walk = func(s *telemetry.SpanJSON) {
		names[s.Name] = true
		for _, c := range s.Spans {
			walk(c)
		}
	}
	walk(root)
	return names
}

func findSpan(root *telemetry.SpanJSON, name string) *telemetry.SpanJSON {
	if root.Name == name {
		return root
	}
	for _, c := range root.Spans {
		if s := findSpan(c, name); s != nil {
			return s
		}
	}
	return nil
}

// TestStatsStream reads two SSE events off /v2/stats/stream and checks the
// payload carries both the /v1/stats shape and the flattened metrics map.
func TestStatsStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := encodeRequest(t, sampleRequest(0))
	post(t, ts.URL+"/v1/wcet", body)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v2/stats/stream?interval=100", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}

	events := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() && events < 2 {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var snap struct {
			UnixMs  int64              `json:"unixMs"`
			Stats   Stats              `json:"stats"`
			Metrics map[string]float64 `json:"metrics"`
		}
		if err := json.Unmarshal([]byte(data), &snap); err != nil {
			t.Fatalf("event %d: %v (%s)", events, err, data)
		}
		if snap.UnixMs == 0 {
			t.Error("snapshot missing timestamp")
		}
		if snap.Stats.SingleRequests != 1 {
			t.Errorf("stream stats singleRequests = %d, want 1", snap.Stats.SingleRequests)
		}
		if _, ok := snap.Metrics[`wcetd_requests_total{endpoint="v1_wcet"}`]; !ok {
			t.Error("stream metrics missing wcetd_requests_total{endpoint=\"v1_wcet\"}")
		}
		events++
	}
	if events < 2 {
		t.Fatalf("read %d events, want 2 (%v)", events, sc.Err())
	}
}

// TestDashboardServed pins that /v2/dashboard returns the embedded page.
func TestDashboardServed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v2/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(b, []byte("/v2/stats/stream")) {
		t.Error("dashboard does not reference the SSE stream")
	}
	if bytes.Contains(b, []byte("/v2/alerts")) {
		t.Error("dashboard still polls the retired /v2/alerts endpoint")
	}
}

// TestOpsProfilesGated pins that pprof is absent by default and mounted
// behind Config.EnableOps.
func TestOpsProfilesGated(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without -ops: status %d, want 404", resp.StatusCode)
	}

	_, on := newTestServer(t, Config{EnableOps: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with -ops: status %d, want 200", resp.StatusCode)
	}
}

// TestConcurrentLoadCountersMonotone is the race-hardening test: clients
// hammer the analysis endpoint while scrapers read /metrics and an SSE
// consumer holds a stream open, all under the race detector in CI. Counter
// reads must never go backwards and must balance exactly once the dust
// settles.
func TestConcurrentLoadCountersMonotone(t *testing.T) {
	s, ts := newTestServer(t, Config{QueueDepth: 64})

	const clients = 6
	const perClient = 20
	bodies := make([][]byte, 4)
	for i := range bodies {
		bodies[i] = encodeRequest(t, sampleRequest(i))
	}

	stop := make(chan struct{})
	var scraperWG sync.WaitGroup

	// Scraper: read the exposition continuously and assert the total
	// request count never decreases between samples.
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		var last float64
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				continue
			}
			b, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			var total float64
			for _, line := range strings.Split(string(b), "\n") {
				if strings.HasPrefix(line, "wcetd_requests_total{") {
					var v float64
					if i := strings.LastIndexByte(line, ' '); i >= 0 {
						fmt.Sscanf(line[i+1:], "%g", &v)
					}
					total += v
				}
			}
			if total < last {
				t.Errorf("request counter went backwards: %g -> %g", last, total)
				return
			}
			last = total
		}
	}()

	// SSE consumer holding a stream open for the duration.
	sseCtx, sseCancel := context.WithCancel(context.Background())
	defer sseCancel()
	scraperWG.Add(1)
	go func() {
		defer scraperWG.Done()
		req, _ := http.NewRequestWithContext(sseCtx, http.MethodGet, ts.URL+"/v2/stats/stream?interval=100", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				body := bodies[(c+i)%len(bodies)]
				req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/wcet", bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				if i%3 == 0 {
					req.Header.Set(TraceHeader, "1")
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusTooManyRequests {
					t.Errorf("status %d", resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	sseCancel()
	scraperWG.Wait()

	// Settled-state accounting: every client request was counted exactly
	// once, and cache hits + misses add up to the admitted lookups.
	text := scrape(t, ts.URL)
	if got := metricValue(t, text, `wcetd_requests_total{endpoint="v1_wcet"}`); got != clients*perClient {
		t.Errorf("v1_wcet requests = %g, want %d", got, clients*perClient)
	}
	st := s.StatsSnapshot()
	if st.InFlight != 0 {
		t.Errorf("in-flight = %d after drain, want 0", st.InFlight)
	}
	if st.Cache.Misses != int64(len(bodies)) {
		t.Errorf("cache misses = %d, want %d (one per unique request)", st.Cache.Misses, len(bodies))
	}
	lookups := st.Cache.Hits + st.Cache.Misses + st.Cache.Dedup
	if lookups == 0 || st.Cache.Hits == 0 {
		t.Errorf("no cache activity under load: %+v", st.Cache)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tricore"
	"repro/internal/workload"
	"repro/wcet"
)

// Request classes of the serve mix.
const (
	classHot    = iota // one of the 256 hot queries: a cache hit
	classMissS1        // a fresh scenario-1 key: a cache miss
	classMissS2        // a fresh scenario-2 key: a cache miss with a real B&B tree
	classProbe         // a no-op GET /healthz: the transport round trip
)

// probeEvery is how often the traced run's untraced phase replaces a
// request with a /healthz probe.
const probeEvery = 16

const (
	hotSetSize = 256
	// Every block of missBlock requests holds one scenario-2 miss; about
	// s1MissShare/(missBlock-1) of the rest are scenario-1 misses. That
	// is 80% hits and 20% misses, 90% of them scenario 1.
	missBlock   = 50
	s1MissShare = 9
)

// contSpec sizes one contender workload.
type contSpec struct {
	level  workload.Level
	bursts int
}

// s2Apps/s2Conts are the scenario-2 sizes. Scenario-2 solve cost is erratic
// in the readings (6 to ~20k branch & bound nodes), so these sizes are
// fixed rather than seed-drawn: every seed asks the solver for the same
// scenario-2 work, and the seed only orders it.
var (
	s2Apps  = []int{40, 80, 120, 160, 220, 300}
	s2Conts = []contSpec{{workload.HLoad, 200}, {workload.MLoad, 500}, {workload.LLoad, 1000},
		{workload.HLoad, 2000}, {workload.MLoad, 3000}, {workload.LLoad, 4000}}
)

// problem is one analysis input: an application and its contenders.
type problem struct {
	scenario   int
	analysed   dsu.Readings
	contenders []dsu.Readings
}

// serveGen generates the serve request stream: request i is a pure
// function of (seed, i).
type serveGen struct {
	seed            int64
	s1Apps, s1Conts []dsu.Readings
	s2Problems      []problem
	hot             []genReq
	hotExpect       [][]byte
}

// genReq is one generated request.
type genReq struct {
	class int
	v2    bool
	body  []byte
}

// isolationReadings measures workloads in isolation on the simulator, the
// way a software provider would take DSU readings.
func isolationReadings(sc workload.Scenario, apps []int, conts []contSpec) ([]dsu.Readings, []dsu.Readings, error) {
	lat := platform.TC27xLatencies()
	var a, c []dsu.Readings
	for _, it := range apps {
		src, err := workload.ControlLoop(workload.AppConfig{Scenario: sc, Core: 1, Iterations: it})
		if err != nil {
			return nil, nil, err
		}
		res, err := sim.RunIsolation(lat, 1, sim.Task{Kind: tricore.TC16P, Src: src}, sim.Config{})
		if err != nil {
			return nil, nil, err
		}
		a = append(a, res.Readings[1])
	}
	for _, cs := range conts {
		src, err := workload.Contender(workload.ContenderConfig{Level: cs.level, Scenario: sc, Core: 2, Bursts: cs.bursts})
		if err != nil {
			return nil, nil, err
		}
		res, err := sim.RunIsolation(lat, 2, sim.Task{Kind: tricore.TC16P, Src: src}, sim.Config{})
		if err != nil {
			return nil, nil, err
		}
		c = append(c, res.Readings[2])
	}
	return a, c, nil
}

func newServeGen(seed int64) (*serveGen, error) {
	g := &serveGen{seed: seed}
	// Scenario-1 sizes are seed-drawn: scenario-1 trees are one node, so
	// their cost does not depend on the draw.
	var apps []int
	var conts []contSpec
	for i := uint64(0); i < 6; i++ {
		apps = append(apps, 30+draw(seed, 1, i, 271))
		conts = append(conts, contSpec{workload.Levels[draw(seed, 2, i, 3)], 100 + draw(seed, 3, i, 2901)})
	}
	var err error
	if g.s1Apps, g.s1Conts, err = isolationReadings(workload.Scenario1, apps, conts); err != nil {
		return nil, err
	}
	a2, c2, err := isolationReadings(workload.Scenario2, s2Apps, s2Conts)
	if err != nil {
		return nil, err
	}
	for i := range a2 {
		for j := range c2 {
			g.s2Problems = append(g.s2Problems, problem{2, a2[i], []dsu.Readings{c2[j]}})
		}
		g.s2Problems = append(g.s2Problems, problem{2, a2[i], []dsu.Readings{c2[i], c2[(i+3)%len(c2)]}})
	}
	// The seed orders the scenario-2 problems.
	for i := len(g.s2Problems) - 1; i > 0; i-- {
		j := draw(seed, 4, uint64(i), i+1)
		g.s2Problems[i], g.s2Problems[j] = g.s2Problems[j], g.s2Problems[i]
	}

	seen := map[string]bool{}
	for h := uint64(0); len(g.hot) < hotSetSize; h++ {
		var p problem
		if draw(seed, 5, h, 10) == 0 {
			p = g.s2Problems[draw(seed, 6, h, len(g.s2Problems))]
		} else {
			p = g.s1Problem(7, h)
		}
		r := g.build(p, 8, h, 10_000_000+int64(h))
		key := string(r.body)
		if seen[key] {
			continue
		}
		seen[key] = true
		r.class = classHot
		g.hot = append(g.hot, r)
	}
	return g, nil
}

// s1Problem draws a scenario-1 problem with one or two contenders.
func (g *serveGen) s1Problem(stream, i uint64) problem {
	p := problem{scenario: 1, analysed: g.s1Apps[draw(g.seed, stream, i, len(g.s1Apps))]}
	n := 1 + draw(g.seed, stream+100, i, 2)
	for k := 0; k < n; k++ {
		p.contenders = append(p.contenders, g.s1Conts[draw(g.seed, stream+200+uint64(k), i, len(g.s1Conts))])
	}
	return p
}

// build renders a problem as a /v1/wcet or /v2/analyze body with an RTA
// block whose period makes the key unique.
func (g *serveGen) build(p problem, stream, i uint64, period int64) genReq {
	rtaModel := "ilpPtac"
	if draw(g.seed, stream, i, 4) == 0 {
		rtaModel = "ftc"
	}
	rta := &service.RTARequest{
		Model:  rtaModel,
		Task:   service.RTATask{Name: "analysed", PeriodCycles: period, Priority: 2},
		Others: []service.RTATask{{Name: "logger", WCETCycles: 50_000 + int64(draw(g.seed, stream+1, i, 50_000)), PeriodCycles: 5_000_000, Priority: 1}},
	}
	var body []byte
	v2 := draw(g.seed, stream+2, i, 2) == 1
	if v2 {
		models := [][]string{{"ftc", "ilpPtac"}, {"ilpPtac"}, {"ilpPtac", "ftcFsb"}}[draw(g.seed, stream+3, i, 3)]
		rta.Model = "ilpPtac"
		body, _ = json.Marshal(service.V2Request{Scenario: p.scenario, Models: models, Analysed: p.analysed, Contenders: p.contenders, RTA: rta})
	} else {
		body, _ = json.Marshal(service.Request{Scenario: p.scenario, Analysed: p.analysed, Contenders: p.contenders, RTA: rta})
	}
	return genReq{v2: v2, body: body}
}

// request returns the i-th request of the stream.
func (g *serveGen) request(i uint64) genReq {
	block := i / missBlock
	switch {
	case int(i%missBlock) == draw(g.seed, 9, block, missBlock):
		r := g.build(g.s2Problems[block%uint64(len(g.s2Problems))], 20, i, 20_000_000+int64(i))
		r.class = classMissS2
		return r
	case draw(g.seed, 10, i, missBlock-1) < s1MissShare:
		r := g.build(g.s1Problem(30, i), 40, i, 20_000_000+int64(i))
		r.class = classMissS1
		return r
	default:
		return g.hot[draw(g.seed, 11, i, len(g.hot))]
	}
}

// withProbes returns the stream with every probeEvery-th request replaced
// by a /healthz probe.
func withProbes(next func(uint64) genReq) func(uint64) genReq {
	return func(i uint64) genReq {
		if i%probeEvery == probeEvery-1 {
			return genReq{class: classProbe}
		}
		return next(i)
	}
}

// endpoint is the request's path.
func (r genReq) endpoint() string {
	switch {
	case r.class == classProbe:
		return "/healthz"
	case r.v2:
		return "/v2/analyze"
	}
	return "/v1/wcet"
}

// httpRequest builds the request on the wire.
func (r genReq) httpRequest(addr string, traced bool) *http.Request {
	if r.class == classProbe {
		req, _ := http.NewRequest(http.MethodGet, "http://"+addr+r.endpoint(), nil)
		return req
	}
	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+r.endpoint(), bytes.NewReader(r.body))
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set(service.TraceHeader, "1")
	}
	return req
}

// expect computes the response bytes the server must send: the literal
// in-process service.Evaluate or service.EvaluateV2, then EncodeJSON.
func expect(an *wcet.Analyzer, r genReq) ([]byte, any, error) {
	var resp any
	var err error
	if r.v2 {
		req, derr := service.DecodeV2Request(bytes.NewReader(r.body))
		if derr != nil {
			return nil, nil, derr
		}
		resp, err = service.EvaluateV2(an, req)
	} else {
		req, derr := service.DecodeRequest(bytes.NewReader(r.body))
		if derr != nil {
			return nil, nil, derr
		}
		resp, err = service.Evaluate(req)
	}
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	if err := service.EncodeJSON(&buf, resp); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), resp, nil
}

// expectCached is expect for the fresh-key stream, on an analyzer with an
// estimate cache: fresh keys repeat problems under new RTA blocks, and
// re-solving each would cost the verifier as much as the server. A /v1
// request is evaluated as the equivalent /v2 request and mapped back to
// the /v1 response shape (checked against service.Evaluate on the hot
// set).
func expectCached(an *wcet.Analyzer, r genReq) ([]byte, any, error) {
	if r.v2 {
		return expect(an, r)
	}
	req, err := service.DecodeRequest(bytes.NewReader(r.body))
	if err != nil {
		return nil, nil, err
	}
	v2, err := service.EvaluateV2(an, service.V2Request{
		Scenario: req.Scenario, Models: []string{"ftc", "ilpPtac"}, Analysed: req.Analysed,
		Contenders: req.Contenders, StallMode: req.StallMode, DropContenderInfo: req.DropContenderInfo, RTA: req.RTA,
	})
	if err != nil {
		return nil, nil, err
	}
	out := func(e service.V2Estimate) service.EstimateOut {
		return service.EstimateOut{Model: e.Model, IsolationCycles: e.IsolationCycles,
			ContentionCycles: e.ContentionCycles, WCETCycles: e.WCETCycles, Ratio: e.Ratio}
	}
	resp := &service.Response{FTC: out(v2.Estimates[0]), ILP: out(v2.Estimates[1]), RTA: v2.RTA}
	var buf bytes.Buffer
	if err := service.EncodeJSON(&buf, resp); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), resp, nil
}

// spanJSON mirrors the server's trace span wire form.
type spanJSON struct {
	Name       string         `json:"name"`
	StartUs    int64          `json:"startUs"`
	DurationUs int64          `json:"durationUs"`
	Attrs      map[string]any `json:"attrs"`
	Spans      []*spanJSON    `json:"spans"`
}

type envelope struct {
	Response json.RawMessage `json:"response"`
	Trace    struct {
		Root *spanJSON `json:"root"`
	} `json:"trace"`
}

func (s *spanJSON) child(name string) *spanJSON {
	for _, c := range s.Spans {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// served is one completed request.
type served struct {
	i      uint64
	class  int
	lat    time.Duration
	traced bool
	root   *spanJSON
	body   []byte // kept for misses, verified after the load
}

// closedLoop runs n clients back to back until the deadline, each taking
// the next request index, and returns what completed.
func closedLoop(c *loadClient, addr string, n int, first uint64, until time.Time, traced bool,
	next func(uint64) genReq, check func(r genReq, status int, body []byte) ([]byte, *spanJSON, error),
	onFail func(string, ...any)) []served {
	var idx atomic.Uint64
	idx.Store(first)
	var mu sync.Mutex
	var out []served
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []served
			for time.Now().Before(until) {
				i := idx.Add(1) - 1
				r := next(i)
				req := r.httpRequest(addr, traced)
				t0 := time.Now()
				status, body, err := c.do(req)
				lat := time.Since(t0)
				s := served{i: i, class: r.class, lat: lat, traced: traced}
				if err != nil {
					mu.Lock()
					onFail("request %d: %v", i, err)
					mu.Unlock()
					continue
				}
				resp, root, cerr := check(r, status, body)
				if cerr != nil {
					mu.Lock()
					onFail("request %d (%s): %v", i, r.endpoint(), cerr)
					mu.Unlock()
					continue
				}
				s.root = root
				if r.class == classMissS1 || r.class == classMissS2 {
					s.body = resp
				}
				mine = append(mine, s)
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return out
}

// unwrap checks the status and, for a traced response, splits the
// envelope into the verbatim response bytes and the span tree.
func unwrap(status int, body []byte, traced bool) ([]byte, *spanJSON, error) {
	if status != http.StatusOK {
		return nil, nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if !traced {
		return body, nil, nil
	}
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, nil, fmt.Errorf("trace envelope: %w", err)
	}
	if env.Trace.Root == nil {
		return nil, nil, fmt.Errorf("trace envelope without a span tree")
	}
	return env.Response, env.Trace.Root, nil
}

// runServe is the serve workload: a closed loop of nproc clients against a
// wcetd subprocess, 80% repeats of a 256-query hot set and 20% fresh keys.
func runServe(b *bench) error {
	gen, err := newServeGen(b.seed)
	if err != nil {
		return err
	}
	plain := wcet.MustNewAnalyzer(wcet.WithConcurrency(1))
	cached := wcet.MustNewAnalyzer(wcet.WithConcurrency(1), wcet.WithCache(4096))
	for _, r := range gen.hot {
		want, _, err := expect(plain, r)
		if err != nil {
			return fmt.Errorf("generated hot request infeasible: %w", err)
		}
		if via, _, err := expectCached(cached, r); err != nil || !bytes.Equal(via, want) {
			return fmt.Errorf("verifier self-check: /v1 via /v2 mapping disagrees with service.Evaluate (%v)", err)
		}
		gen.hotExpect = append(gen.hotExpect, want)
	}
	parts := [][]byte{}
	for _, r := range gen.hot {
		parts = append(parts, r.body)
	}
	for i := uint64(0); i < 2000; i++ {
		parts = append(parts, gen.request(i).body)
	}
	b.digest = digestOf(parts...)

	setup, err := b.measureDaemonSetup(9)
	if err != nil {
		return err
	}
	d, err := b.startWcetd("serve", true)
	if err != nil {
		return err
	}
	setup = append(setup, d.startup.Seconds())
	b.metrics["setup_s"] = median(setup)

	client := newLoadClient(b.nproc)
	hotIndex := map[string]int{}
	for k, r := range gen.hot {
		hotIndex[string(r.body)] = k
	}
	check := func(traced bool) func(r genReq, status int, body []byte) ([]byte, *spanJSON, error) {
		return func(r genReq, status int, body []byte) ([]byte, *spanJSON, error) {
			resp, root, err := unwrap(status, body, traced)
			if err != nil {
				return nil, nil, err
			}
			if r.class == classHot {
				want := gen.hotExpect[hotIndex[string(r.body)]]
				if traced {
					want = bytes.TrimSpace(want)
				}
				if !bytes.Equal(resp, want) {
					return nil, nil, fmt.Errorf("hot response differs from in-process evaluation")
				}
			}
			return resp, root, nil
		}
	}
	onFail := func(format string, args ...any) { b.attempted++; b.fail(format, args...) }

	runErr := func() error {
		// Warm-up: prime the hot set, then a second of normal traffic from
		// a disjoint index range.
		for _, r := range gen.hot {
			if status, body, err := client.do(r.httpRequest(d.addr, false)); err != nil || status != http.StatusOK {
				return fmt.Errorf("priming hot set: status %d err %v: %s", status, err, body)
			}
		}
		closedLoop(client, d.addr, b.nproc, 1<<40, time.Now().Add(time.Second), false, gen.request, check(false), onFail)

		before, err := client.scrape(d.addr)
		if err != nil {
			return err
		}
		var untraced, traced []served
		var elapsed time.Duration
		if !b.traced {
			start := time.Now()
			untraced = closedLoop(client, d.addr, b.nproc, 0, start.Add(b.dur), false, gen.request, check(false), onFail)
			elapsed = time.Since(start)
		} else {
			start := time.Now()
			// The untraced phase carries the /healthz probes that time the
			// transport on the load's own connections.
			untraced = closedLoop(client, d.addr, b.nproc, 0, start.Add(b.dur/3), false, withProbes(gen.request), check(false), onFail)
			before, err = client.scrape(d.addr)
			if err != nil {
				return err
			}
			traced = closedLoop(client, d.addr, b.nproc, 1<<41, time.Now().Add(b.dur*2/3), true, gen.request, check(true), onFail)
		}
		after, err := client.scrape(d.addr)
		if err != nil {
			return err
		}
		b.verifyMisses(gen, cached, append(untraced, traced...))
		b.serveMetrics(untraced, elapsed)
		if b.traced {
			b.serveLayers(gen, untraced, traced, before, after)
		}
		b.metrics["service.conns_opened"] = float64(client.dials.Load())
		b.attempted++
		if client.dials.Load() > int64(b.nproc) {
			b.fail("client opened %d connections for %d clients", client.dials.Load(), b.nproc)
		}
		return nil
	}()
	client.close()
	rss, stopErr := d.stop()
	b.metrics["peak_rss_mb"] = rss
	if runErr != nil {
		return runErr
	}
	return stopErr
}

// verifyMisses checks every fresh-key response against the in-process
// evaluation of the same request.
func (b *bench) verifyMisses(gen *serveGen, an *wcet.Analyzer, done []served) {
	for _, s := range done {
		b.attempted++
		if s.class != classMissS1 && s.class != classMissS2 {
			continue // hits are checked as they arrive
		}
		want, _, err := expectCached(an, gen.request(s.i))
		if err != nil {
			b.fail("request %d: in-process evaluation failed: %v", s.i, err)
			continue
		}
		if s.traced {
			want = bytes.TrimSpace(want)
		}
		if !bytes.Equal(s.body, want) {
			b.fail("request %d: response differs from in-process evaluation", s.i)
		}
	}
}

// latUs returns the latencies of the given classes in microseconds.
func latUs(done []served, classes ...int) []float64 {
	var out []float64
	for _, s := range done {
		for _, c := range classes {
			if s.class == c {
				out = append(out, durUs(s.lat))
				break
			}
		}
	}
	return out
}

func (b *bench) serveMetrics(done []served, elapsed time.Duration) {
	all := latUs(done, classHot, classMissS1, classMissS2)
	hits := latUs(done, classHot)
	misses := latUs(done, classMissS1, classMissS2)
	b.named["hit_p50_us"] = median(hits)
	b.named["hit_p99_us"] = quantile(hits, 0.99)
	b.named["miss_p50_us"] = median(misses)
	b.named["miss_p99_us"] = quantile(misses, 0.99)
	if elapsed > 0 {
		b.named["req_per_s"] = float64(len(all)) / elapsed.Seconds()
		b.metrics["ops_per_s"] = b.named["req_per_s"]
		b.metrics["lat_p50_ms"] = median(all) / 1000
		b.metrics["lat_p90_ms"] = quantile(all, 0.9) / 1000
	}
	fmt.Printf("samples requests=%d hits=%d misses=%d s2_misses=%d\n",
		len(all), len(hits), len(misses), len(latUs(done, classMissS2)))
}

// serveLayers derives the per-layer metrics of the traced phase and
// reconciles them with the untraced phase's round trips. Every term runs
// on its own timer: the transport is the /healthz probes' round trip,
// decode, canonicalization and encoding are in-process replays, and the
// cache lookup and evaluation path are the server's spans. Work none of
// them covers shows as an unaccounted share.
func (b *bench) serveLayers(gen *serveGen, untraced, traced []served, before, after map[string]float64) {
	var cacheUs, hitCache []float64
	var admission, dispatch, evaluate, validate, ilpUs, ftcUs, nodes []float64
	var s1Cache, s1Admission, s1Dispatch, s1Evaluate []float64
	misses := 0
	for _, s := range traced {
		root := s.root
		c := root.child("cache")
		if c == nil {
			continue
		}
		cacheUs = append(cacheUs, float64(c.DurationUs))
		if c.Attrs["hit"] == true {
			hitCache = append(hitCache, float64(c.DurationUs))
			continue
		}
		ev, a := root.child("evaluate"), root.child("admission")
		if ev == nil || a == nil {
			continue // joined an identical in-flight evaluation
		}
		misses++
		// From admission to the start of evaluation the request waits for
		// a campaign-engine slot and its goroutine hand-off.
		gap := float64(ev.StartUs - a.StartUs - a.DurationUs)
		admission = append(admission, float64(a.DurationUs))
		dispatch = append(dispatch, gap)
		evaluate = append(evaluate, float64(ev.DurationUs))
		if s.class == classMissS1 {
			s1Cache = append(s1Cache, float64(c.DurationUs))
			s1Admission = append(s1Admission, float64(a.DurationUs))
			s1Dispatch = append(s1Dispatch, gap)
			s1Evaluate = append(s1Evaluate, float64(ev.DurationUs))
		}
		if v := ev.child("validate"); v != nil {
			validate = append(validate, float64(v.DurationUs))
		}
		if m := ev.child("model:ilpPtac"); m != nil {
			ilpUs = append(ilpUs, float64(m.DurationUs))
			if n, ok := m.Attrs["nodes"].(float64); ok {
				nodes = append(nodes, n)
			}
		}
		if m := ev.child("model:ftc"); m != nil {
			ftcUs = append(ftcUs, float64(m.DurationUs))
		}
	}
	decode, canon, encode := replayRequestPath(gen)
	transport := median(latUs(untraced, classProbe))
	b.metrics["service.transport_us"] = transport
	b.metrics["service.cache_us"] = median(cacheUs)
	b.metrics["service.admission_us"] = median(admission)
	b.metrics["service.dispatch_us"] = median(dispatch)
	b.metrics["service.evaluate_us"] = median(evaluate)
	b.metrics["wcet.validate_us"] = median(validate)
	b.metrics["wcet.model_ilpPtac_us"] = median(ilpUs)
	b.metrics["wcet.model_ftc_us"] = median(ftcUs)
	b.metrics["ilp.nodes_p50"] = median(nodes)
	b.metrics["ilp.nodes_max"] = quantile(nodes, 1)
	b.metrics["service.decode_us"] = decode
	b.metrics["service.canon_us"] = canon
	b.metrics["service.encode_us"] = encode

	delta := func(name string) float64 { return after[name] - before[name] }
	hits, cacheMisses := delta("wcetd_cache_hits_total"), delta("wcetd_cache_misses_total")
	b.metrics["service.cache_hit_rate"] = hits / max(hits+cacheMisses, 1)
	b.metrics["service.cache_evictions"] = delta("wcetd_cache_evictions_total")
	b.metrics["ilp.warm_start_rate"] = delta("solver_warm_starts_total") / max(delta("solver_bb_nodes_total"), 1)
	b.metrics["campaign.sim_runs"] = delta("campaign_sim_runs_total")
	b.metrics["campaign.memo_hits"] = delta("campaign_memo_hits_total")

	all := func(done []served) []float64 { return latUs(done, classHot, classMissS1, classMissS2) }
	b.metrics["trace_overhead_pct"] = 100 * (median(all(traced))/median(all(untraced)) - 1)

	// Medians: within a class every term is narrow. The median request is
	// a hit; the median miss is a scenario-1 miss.
	b.metrics["reconciled_pct"] = b.reconcile("serve hit median (us)", median(latUs(untraced, classHot)), map[string]float64{
		"transport": transport, "decode": decode, "canon": canon, "cache": median(hitCache), "encode": encode,
	})
	b.reconcile("serve scenario-1 miss median (us)", median(latUs(untraced, classMissS1)), map[string]float64{
		"transport": transport, "decode": decode, "canon": canon, "cache": median(s1Cache),
		"admission": median(s1Admission), "dispatch": median(s1Dispatch), "evaluate": median(s1Evaluate), "encode": encode,
	})
	fmt.Printf("samples probes=%d traced=%d traced_hits=%d traced_misses=%d\n",
		len(latUs(untraced, classProbe)), len(traced), len(hitCache), misses)
	fmt.Println("not measured: obs.traces_stored — wcetd exports no stored-trace counter on /metrics, and /v2/traces lists at most its 512-entry ring")
}

// replayRequestPath times the request-path layers the server runs outside
// any span — strict decode plus validation, canonicalization, response
// encoding — on the same bodies, in process. Each is a mean per call in
// microseconds.
func replayRequestPath(gen *serveGen) (decode, canon, encode float64) {
	reg := wcet.DefaultRegistry()
	an := wcet.MustNewAnalyzer(wcet.WithConcurrency(1), wcet.WithCache(4096))
	var resps []any
	for _, r := range gen.hot {
		if _, resp, err := expectCached(an, r); err == nil {
			resps = append(resps, resp)
		}
	}
	timeIt := func(f func()) float64 {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 150*time.Millisecond {
			f()
			n++
		}
		return durUs(time.Since(t0)) / float64(n)
	}
	k := 0
	decode = timeIt(func() {
		r := gen.hot[k%len(gen.hot)]
		k++
		if r.v2 {
			req, _ := service.DecodeV2Request(bytes.NewReader(r.body))
			_, _ = req.Prepare(reg)
		} else {
			req, _ := service.DecodeRequest(bytes.NewReader(r.body))
			_ = req.Validate()
		}
	})
	var v1 []service.Request
	var v2 []service.V2Request
	for _, r := range gen.hot {
		if r.v2 {
			req, _ := service.DecodeV2Request(bytes.NewReader(r.body))
			v2 = append(v2, req)
		} else {
			req, _ := service.DecodeRequest(bytes.NewReader(r.body))
			v1 = append(v1, req)
		}
	}
	k = 0
	canon = timeIt(func() {
		if k%2 == 0 && len(v1) > 0 {
			_ = service.CanonicalKey(v1[(k/2)%len(v1)])
		} else if len(v2) > 0 {
			_ = service.CanonicalKeyV2(reg, v2[(k/2)%len(v2)])
		}
		k++
	})
	var buf bytes.Buffer
	k = 0
	encode = timeIt(func() {
		buf.Reset()
		_ = service.EncodeJSON(&buf, resps[k%len(resps)])
		k++
	})
	return decode, canon, encode
}

// scrape reads wcetd's /metrics, keyed by series name and labels.
func (c *loadClient) scrape(addr string) (map[string]float64, error) {
	req, _ := http.NewRequest(http.MethodGet, "http://"+addr+"/metrics", nil)
	status, body, err := c.do(req)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d: %v", status, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

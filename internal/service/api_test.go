package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dsu"
)

// sampleRequest is a Table 6-flavoured request; variant perturbs the
// analysed readings so distinct variants are distinct cache keys.
func sampleRequest(variant int) Request {
	return Request{
		Scenario: 1,
		Analysed: dsu.Readings{
			CCNT: 157800 + int64(variant)*1000,
			PS:   18000,
			DS:   27000,
			PM:   3000,
		},
		Contenders: []dsu.Readings{
			{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000},
		},
	}
}

func rtaRequest() Request {
	req := sampleRequest(0)
	req.RTA = &RTARequest{
		Task: RTATask{Name: "uAnalysed", PeriodCycles: 2_000_000, Priority: 2},
		Others: []RTATask{
			{Name: "ctrl", WCETCycles: 50_000, PeriodCycles: 500_000, Priority: 1},
		},
	}
	return req
}

func encodeRequest(t testing.TB, req Request) []byte {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunCLIMatchesSeedBehaviour(t *testing.T) {
	var out bytes.Buffer
	if err := RunCLI(bytes.NewReader(encodeRequest(t, sampleRequest(0))), &out); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.FTC.Model != "fTC" || resp.ILP.Model != "ILP-PTAC" {
		t.Errorf("unexpected models %q / %q", resp.FTC.Model, resp.ILP.Model)
	}
	if resp.FTC.WCETCycles < resp.ILP.WCETCycles {
		t.Errorf("fTC bound %d below ILP-PTAC bound %d", resp.FTC.WCETCycles, resp.ILP.WCETCycles)
	}
	if resp.RTA != nil {
		t.Error("RTA verdict present without an rta request")
	}
	if !strings.HasSuffix(out.String(), "}\n") {
		t.Error("output missing trailing newline")
	}
}

func TestEvaluateRTAVerdict(t *testing.T) {
	resp, err := Evaluate(rtaRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.RTA == nil {
		t.Fatal("no RTA verdict")
	}
	if resp.RTA.Model != "ilpPtac" {
		t.Errorf("default RTA model = %q, want ilpPtac", resp.RTA.Model)
	}
	if resp.RTA.WCETCycles != resp.ILP.WCETCycles {
		t.Errorf("RTA used WCET %d, want ILP bound %d", resp.RTA.WCETCycles, resp.ILP.WCETCycles)
	}
	if len(resp.RTA.Results) != 2 {
		t.Fatalf("got %d RTA results, want 2", len(resp.RTA.Results))
	}
	if !resp.RTA.Schedulable {
		t.Errorf("task set unexpectedly unschedulable: %+v", resp.RTA.Results)
	}
	// The fTC-based verdict must use the larger bound.
	req := rtaRequest()
	req.RTA.Model = "ftc"
	ftcResp, err := Evaluate(req)
	if err != nil {
		t.Fatal(err)
	}
	if ftcResp.RTA.WCETCycles != ftcResp.FTC.WCETCycles {
		t.Errorf("ftc RTA used WCET %d, want %d", ftcResp.RTA.WCETCycles, ftcResp.FTC.WCETCycles)
	}
}

func TestValidationRejects(t *testing.T) {
	cases := map[string]func(*Request){
		"scenario 0":         func(r *Request) { r.Scenario = 0 },
		"scenario 3":         func(r *Request) { r.Scenario = 3 },
		"bad stall mode":     func(r *Request) { r.StallMode = "fast" },
		"negative counter":   func(r *Request) { r.Analysed.PS = -1 },
		"stalls over CCNT":   func(r *Request) { r.Analysed.DS = r.Analysed.CCNT },
		"PM over CCNT":       func(r *Request) { r.Analysed.PM = r.Analysed.CCNT + 1 },
		"bad contender":      func(r *Request) { r.Contenders[0].PM = -3 },
		"bad rta model":      func(r *Request) { r.RTA = &RTARequest{Model: "edf"} },
		"rta model not v1":   func(r *Request) { r.RTA = &RTARequest{Model: "templatePtac"} },
		"rta other no wcet":  func(r *Request) { r.RTA = &RTARequest{Others: []RTATask{{Name: "x", PeriodCycles: 10}}} },
		"rta other negative": func(r *Request) { r.RTA = &RTARequest{Others: []RTATask{{Name: "x", WCETCycles: -1}}} },
	}
	for name, mutate := range cases {
		req := sampleRequest(0)
		mutate(&req)
		if err := req.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := Evaluate(req); err == nil {
			t.Errorf("%s: evaluated", name)
		}
	}

	// A registered model outside the pair gets the v1-specific message
	// pointing at /v2, not the generic v2 "not among" one.
	req := sampleRequest(0)
	req.RTA = &RTARequest{Model: "templatePtac"}
	if err := req.Validate(); err == nil || !strings.Contains(err.Error(), "/v1 computes only") {
		t.Errorf("rta.model templatePtac on v1: error %v, want the /v1 computes only message", err)
	}
}

func TestDecodeRequestRejectsUnknownFields(t *testing.T) {
	_, err := DecodeRequest(strings.NewReader(`{"scenario":1,"bogus":true}`))
	if err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestCanonicalKey(t *testing.T) {
	base := sampleRequest(0)
	if CanonicalKey(base) != CanonicalKey(base) {
		t.Fatal("key not deterministic")
	}
	if CanonicalKey(base) == CanonicalKey(sampleRequest(1)) {
		t.Error("different readings share a key")
	}

	// Default normalization: "" and "budget" are the same configuration.
	mode := base
	mode.StallMode = "budget"
	if CanonicalKey(base) != CanonicalKey(mode) {
		t.Error("stallMode default not normalized")
	}
	exact := base
	exact.StallMode = "exact"
	if CanonicalKey(base) == CanonicalKey(exact) {
		t.Error("stall modes share a key")
	}

	// Contender permutation invariance.
	two := base
	two.Contenders = []dsu.Readings{
		{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000},
		{CCNT: 900000, PS: 10000, DS: 20000, PM: 1000},
	}
	perm := two
	perm.Contenders = []dsu.Readings{two.Contenders[1], two.Contenders[0]}
	if CanonicalKey(two) != CanonicalKey(perm) {
		t.Error("permuted contenders miss the cache")
	}
	if CanonicalKey(two) == CanonicalKey(base) {
		t.Error("extra contender ignored")
	}

	// The analysed task's WCETCycles is an output: requests differing
	// only there must collide.
	a, b := rtaRequest(), rtaRequest()
	b.RTA.Task.WCETCycles = 999
	if CanonicalKey(a) != CanonicalKey(b) {
		t.Error("analysed wcetCycles leaked into the key")
	}
	// Co-resident order is semantic (priority tie-break) — distinct keys.
	c := rtaRequest()
	c.RTA.Others = append(c.RTA.Others, RTATask{Name: "z", WCETCycles: 1000, PeriodCycles: 100_000, Priority: 1})
	d := rtaRequest()
	d.RTA.Others = append([]RTATask{{Name: "z", WCETCycles: 1000, PeriodCycles: 100_000, Priority: 1}}, d.RTA.Others...)
	if CanonicalKey(c) == CanonicalKey(d) {
		t.Error("rta co-resident order ignored")
	}
	if CanonicalKey(a) == CanonicalKey(base) {
		t.Error("rta request shares key with plain request")
	}
}

// testCache is a result cache reporting into a fresh server's counters.
func testCache(capacity int) *resultCache {
	m := newServerMetrics()
	return newResultCache(capacity, m.cacheHits, m.cacheEvictions, m.cacheContention)
}

func TestLRUEviction(t *testing.T) {
	c := testCache(2)
	mk := func(s string) *cached { return &cached{body: []byte(s)} }
	c.put("a", mk("a"))
	c.put("b", mk("b"))
	if _, ok := c.get("a"); !ok { // bump a: b is now coldest
		t.Fatal("a missing")
	}
	c.put("c", mk("c")) // evicts b
	if _, ok := c.get("b"); ok {
		t.Error("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recency bump")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d, want 2", got)
	}
	if got := c.shards[0].evictions.Value(); got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}

// TestCacheZeroCapacity is the regression test for the cap<=0 put bug:
// the old LRU inserted the entry and then self-evicted it in the
// trim loop, counting a bogus eviction on every put. A non-positive
// capacity now means "cache disabled": puts are no-ops, lookups miss,
// and the eviction counter never moves.
func TestCacheZeroCapacity(t *testing.T) {
	for _, capacity := range []int{0, -5} {
		c := testCache(capacity)
		c.put("a", &cached{body: []byte("a")})
		if _, ok := c.get("a"); ok {
			t.Errorf("cap=%d: disabled cache returned a hit", capacity)
		}
		if got := c.len(); got != 0 {
			t.Errorf("cap=%d: len = %d, want 0", capacity, got)
		}
		if got := c.shards[0].evictions.Value(); got != 0 {
			t.Errorf("cap=%d: evictions = %d, want 0 (self-eviction regression)", capacity, got)
		}
	}
}

// TestCacheProbeNoRecencyChurn pins the probe-then-reject fix: a
// pre-admission probe that misses must not mutate the cache at all —
// under the old LRU every probe took the global lock and a hit spliced
// the recency list even when admission then rejected the request. Here
// the same eviction victim must emerge whether or not a storm of
// missing-key probes ran in between, and a probe that hits must still
// earn the entry its second chance. (Probes count no misses by
// construction: the cache has no miss counter; the server counts them.)
func TestCacheProbeNoRecencyChurn(t *testing.T) {
	c := testCache(2)
	mk := func(s string) *cached { return &cached{body: []byte(s)} }
	c.put("a", mk("a"))
	c.put("b", mk("b"))
	c.get("a") // a is referenced; b is the eviction victim

	// Probe-then-reject storm: none of these keys are resident, so none
	// of these probes may touch recency state.
	for i := 0; i < 100; i++ {
		if _, ok := c.get(fmt.Sprintf("absent-%d", i)); ok {
			t.Fatal("absent key reported resident")
		}
	}
	if got := c.len(); got != 2 {
		t.Errorf("len = %d after probes, want 2", got)
	}

	// The recency order established before the storm must still hold:
	// the sweep evicts unreferenced b, not referenced a.
	c.put("c", mk("c"))
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted — probe storm perturbed recency order")
	}
	if _, ok := c.get("b"); ok {
		t.Error("b survived — probe storm perturbed recency order")
	}
}

// TestCacheSharding exercises the multi-shard configuration end to end:
// a capacity large enough to split 16 ways must still account hits,
// evictions and len globally, and keys must spread across more than one
// shard.
func TestCacheSharding(t *testing.T) {
	c := testCache(1024)
	if len(c.shards) != maxCacheShards {
		t.Fatalf("shards = %d, want %d", len(c.shards), maxCacheShards)
	}
	total := 0
	for i := range c.shards {
		total += c.shards[i].cap
	}
	if total != 1024 {
		t.Errorf("summed shard capacity = %d, want 1024", total)
	}
	touched := map[*cacheShard]bool{}
	for i := 0; i < 256; i++ {
		key := CanonicalKey(sampleRequest(i))
		touched[c.shard(key)] = true
		c.put(key, &cached{body: []byte(key)})
	}
	if len(touched) < 2 {
		t.Errorf("256 hashed keys landed on %d shard(s); prefix routing is not spreading", len(touched))
	}
	if got := c.len(); got != 256 {
		t.Errorf("len = %d, want 256", got)
	}
	for i := 0; i < 256; i++ {
		if _, ok := c.get(CanonicalKey(sampleRequest(i))); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	if got := c.shards[0].hits.Value(); got != 256 {
		t.Errorf("hits = %d, want 256", got)
	}
}

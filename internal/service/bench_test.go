package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/dsu"
	"repro/internal/experiments"
	"repro/wcet"
)

// evalV1 is the server's miss path for a v1 request under the serving
// table.
func evalV1(s *Server, req Request) func(context.Context) (*cached, error) {
	return func(ctx context.Context) (*cached, error) {
		sdkReq, err := req.asV2().prepare(s.analyzer.Registry(), apiV1)
		if err != nil {
			return nil, err
		}
		sdkReq.TableRef = string(s.servingID())
		return s.evaluateEncoded(ctx, sdkReq, apiV1)
	}
}

// BenchmarkCacheHit measures the canonical-request cache's hot path: an
// already-seen request resolved key-to-response. This is the acceptance
// bar for duplicate provider submissions — it must be sub-microsecond
// (it is a sharded map lookup plus a CLOCK ref-bit set).
func BenchmarkCacheHit(b *testing.B) {
	s := New(Config{}, nil)
	req := sampleRequest(0)
	key := CanonicalKey(req)
	if _, err := s.lookupOrCompute(context.Background(), key, evalV1(s, req)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.lookupOrCompute(context.Background(), key, evalV1(s, req)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.StatsSnapshot()
	if st.Cache.Misses != 1 {
		b.Fatalf("benchmark loop missed the cache: %+v", st.Cache)
	}
}

// BenchmarkDuplicateRequestEndToEnd is the honest version of
// BenchmarkCacheHit: the full duplicate-query cost including JSON decode
// and canonicalization, without HTTP transport.
func BenchmarkDuplicateRequestEndToEnd(b *testing.B) {
	s := New(Config{}, nil)
	req := sampleRequest(0)
	body := encodeRequest(b, req)
	if _, err := s.lookupOrCompute(context.Background(), CanonicalKey(req), evalV1(s, req)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, err := DecodeRequest(bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.lookupOrCompute(context.Background(), CanonicalKey(dec), evalV1(s, dec)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdEvaluate is the miss cost the cache amortizes away: a
// full fTC + ILP-PTAC evaluation per iteration.
func BenchmarkColdEvaluate(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Vary the request so no two iterations could share a solve.
		req := sampleRequest(i)
		if _, err := Evaluate(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSustainedBatchThroughput drives the HTTP batch endpoint with
// concurrent clients submitting batches that mix fresh and duplicate
// requests (a realistic integration-campaign stream) and reports
// items/sec plus the cache hit rate the stream achieved.
func BenchmarkSustainedBatchThroughput(b *testing.B) {
	const batchSize = 16
	const uniquePool = 32
	s := New(Config{QueueDepth: 1024}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// One idle connection per client goroutine, so requests reuse their
	// loopback connection instead of dialling a new one.
	tr := &http.Transport{MaxIdleConnsPerHost: runtime.GOMAXPROCS(0)}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	bodies := make([][]byte, uniquePool)
	for v := range bodies {
		batch := BatchRequest{}
		for j := 0; j < batchSize; j++ {
			// Half the cells repeat across batches, half are
			// batch-specific duplicates of the variant.
			batch.Requests = append(batch.Requests, sampleRequest((v+j)%8))
		}
		var err error
		bodies[v], err = json.Marshal(batch)
		if err != nil {
			b.Fatal(err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			body := bodies[i%uniquePool]
			i++
			resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	})
	b.StopTimer()

	st := s.StatsSnapshot()
	items := st.BatchItems
	if items > 0 {
		b.ReportMetric(float64(items)/b.Elapsed().Seconds(), "items/s")
	}
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		b.ReportMetric(float64(st.Cache.Hits)/float64(lookups), "cache_hit_rate")
	}
	if b.N > uniquePool && st.Cache.Hits == 0 {
		b.Fatal(fmt.Sprintf("sustained stream never hit the cache: %+v", st.Cache))
	}
}

// BenchmarkCampaignStreamReplay streams a finished 24-cell campaign job
// over loopback per iteration: the replay a client gets when it opens a
// done job's progress stream. It reports the flushes per stream (the
// replay goes out as one write) and the stream's size.
func BenchmarkCampaignStreamReplay(b *testing.B) {
	srv := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, nil)
	var flushes atomic.Int64
	ts := httptest.NewServer(countFlushes(srv.Handler(), &flushes))
	defer ts.Close()
	spec := campaignSpec()
	spec.Grid.Models = []string{"ilpPtac", "ftc"}
	spec.Grid.Perturbations = []experiments.PerturbationSpec{
		{},
		{Name: "up10", ScalePercent: 110},
		{Name: "up20", ScalePercent: 120},
		{Name: "down10", ScalePercent: 90},
	}
	st := submitCampaign(b, ts.URL, spec)
	waitCampaign(b, ts.URL, st.ID)
	url := ts.URL + "/v2/campaigns/" + st.ID + "/stream"
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	size := len(getStream(b, client, url, 0))

	b.ReportAllocs()
	flushes.Store(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		getStream(b, client, url, 0)
	}
	b.StopTimer()
	b.ReportMetric(float64(flushes.Load())/float64(b.N), "flushes/stream")
	b.ReportMetric(float64(size), "stream_bytes")
}

// hotRequest is shaped like a request of perfbench's serve hot set: two
// contenders and an RTA block whose period makes the key unique.
func hotRequest() Request {
	return Request{
		Scenario: 1,
		Analysed: dsu.Readings{CCNT: 157800, PS: 18000, DS: 27000, PM: 3000, DMC: 420, DMD: 35},
		Contenders: []dsu.Readings{
			{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000, DMC: 1100, DMD: 90},
			{CCNT: 220000, PS: 21000, DS: 16000, PM: 2500, DMC: 300, DMD: 12},
		},
		RTA: &RTARequest{
			Model:  "ilpPtac",
			Task:   RTATask{Name: "analysed", PeriodCycles: 10_000_017, Priority: 2},
			Others: []RTATask{{Name: "logger", WCETCycles: 73_421, PeriodCycles: 5_000_000, Priority: 1}},
		},
	}
}

// hotV2Request is hotRequest on /v2/analyze, selecting two models.
func hotV2Request() V2Request {
	req := hotRequest().asV2()
	req.Models = []string{"ilpPtac", "ftcFsb"}
	return req
}

// sinkErr keeps the compiler from discarding a benchmarked call.
var sinkErr error

// BenchmarkDecodeRequest is the strict decode of a hot-set body, the
// first step of every /v1/wcet and /v2/analyze request. The fallback
// bodies leave the direct parser's subset only at their end, where the
// parser stops: the last task name is non-ASCII, or the last member name
// is case-folded. decodeStrict decides them after the direct attempt. The batch cases read a four-request
// /v1/batch body 64 bytes a Read. The strict/ cases are decodeStrict
// alone on the same bodies, the decode before the direct path.
func BenchmarkDecodeRequest(b *testing.B) {
	v1, err := json.Marshal(hotRequest())
	if err != nil {
		b.Fatal(err)
	}
	v2, err := json.Marshal(hotV2Request())
	if err != nil {
		b.Fatal(err)
	}
	batch, err := json.Marshal(BatchRequest{Requests: []Request{hotRequest(), hotRequest(), hotRequest(), hotRequest()}})
	if err != nil {
		b.Fatal(err)
	}
	nonASCII := bytes.Replace(v1, []byte(`"logger"`), []byte("\"logg\u00e9r\""), 1)
	folded := bytes.Replace(v1, []byte(`"priority":1}]`), []byte(`"Priority":1}]`), 1)
	if bytes.Equal(nonASCII, v1) || bytes.Equal(folded, v1) {
		b.Fatal("fallback bodies equal the hot body")
	}
	cases := []struct {
		name   string
		body   []byte
		chunk  int
		direct func(io.Reader) error
		strict func(io.Reader) error
	}{
		{"v1", v1, 0, decodeWith(DecodeRequest), strictInto[Request]},
		{"v2", v2, 0, decodeWith(DecodeV2Request), strictInto[V2Request]},
		{"v1-fallback-nonascii", nonASCII, 0, decodeWith(DecodeRequest), strictInto[Request]},
		{"v1-fallback-folded", folded, 0, decodeWith(DecodeRequest), strictInto[Request]},
		{"batch-64B-reads", batch, 64, decodeWith(func(r io.Reader) (BatchRequest, error) {
			return decodeDirect(r, parseBatch)
		}), strictInto[BatchRequest]},
	}
	for _, strict := range []bool{false, true} {
		for _, c := range cases {
			name, decode := c.name, c.direct
			if strict {
				name, decode = "strict/"+c.name, c.strict
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var r io.Reader = bytes.NewReader(c.body)
					if c.chunk > 0 {
						r = &chunkReader{r, c.chunk}
					}
					sinkErr = decode(r)
				}
			})
		}
	}
}

func decodeWith[T any](decode func(io.Reader) (T, error)) func(io.Reader) error {
	return func(r io.Reader) error {
		_, err := decode(r)
		return err
	}
}

func strictInto[T any](r io.Reader) error {
	var v T
	return decodeStrict(r, &v)
}

// BenchmarkEncodeResponse renders a hot-set response with EncodeJSON into
// a reused buffer: what a miss caches and what perfbench's encode replay
// times.
func BenchmarkEncodeResponse(b *testing.B) {
	v1, err := Evaluate(hotRequest())
	if err != nil {
		b.Fatal(err)
	}
	v2, err := EvaluateV2(defaultAnalyzer, hotV2Request())
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		resp any
	}{{"v1", v1}, {"v2", v2}} {
		b.Run(c.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				sinkErr = EncodeJSON(&buf, c.resp)
			}
		})
	}
}

// sinkKey keeps the compiler from discarding a benchmarked key.
var sinkKey string

// BenchmarkRequestKey renders and hashes the cache key of a hot-set
// request, which every analysis request pays before its cache probe.
func BenchmarkRequestKey(b *testing.B) {
	reg := wcet.DefaultRegistry()
	v1, v2 := hotRequest(), hotV2Request()
	b.Run("v1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkKey = CanonicalKey(v1)
		}
	})
	b.Run("v2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkKey = CanonicalKeyV2(reg, v2)
		}
	})
}

// BenchmarkServeHit is a cached /v1/wcet hit over real loopback TCP from
// one keep-alive client: the median request of perfbench's serve
// workload, transport included.
func BenchmarkServeHit(b *testing.B) {
	s := New(Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	body, err := json.Marshal(hotRequest())
	if err != nil {
		b.Fatal(err)
	}
	post := func() {
		resp, err := client.Post(ts.URL+"/v1/wcet", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d: %v", resp.StatusCode, err)
		}
	}
	post()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.StopTimer()
	if st := s.StatsSnapshot(); st.Cache.Misses != 1 {
		b.Fatalf("benchmark loop missed the cache: %+v", st.Cache)
	}
}

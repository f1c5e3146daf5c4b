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

	"repro/internal/experiments"
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
	s := New(Config{MaxInFlight: 256, QueueDepth: 1024}, nil)
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

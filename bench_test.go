// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation section, plus ablations of the design choices DESIGN.md calls
// out. Custom metrics carry the reproduced numbers:
//
//	go test -bench=. -benchmem
//
// Table/figure benches report the regenerated values (ratios as "x_iso",
// bounds as "cycles"); ablation benches report the bound each variant
// produces so the cost of dropping information is visible in the output.
package repro

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
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/tricore"
	"repro/internal/workload"
)

var benchLat = platform.TC27xLatencies()

// BenchmarkTable2Calibration regenerates Table 2: per-target maximum
// latencies and minimum stall cycles via calibration microbenchmarks.
// Each iteration gets a fresh engine so the memo cache cannot turn later
// iterations into lookups.
func BenchmarkTable2Calibration(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.NewRunner(campaign.New(0)).CalibrateTable2(context.Background(), benchLat)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.CsCo >= 0 {
			b.ReportMetric(float64(r.CsCo), fmt.Sprintf("cs_%s_co", r.Target))
		}
		if r.CsDa >= 0 {
			b.ReportMetric(float64(r.CsDa), fmt.Sprintf("cs_%s_da", r.Target))
		}
	}
}

// BenchmarkTable3Validation regenerates Table 3: the architectural
// placement-constraint matrix, measured as the cost of validating a full
// deployment against it.
func BenchmarkTable3Validation(b *testing.B) {
	allowed := 0
	for i := 0; i < b.N; i++ {
		allowed = 0
		for _, o := range platform.Ops {
			for _, t := range platform.Targets {
				for _, c := range []bool{true, false} {
					if platform.ValidatePlacement(o, platform.Placement{Target: t, Cacheable: c}) == nil {
						allowed++
					}
				}
			}
		}
	}
	// Table 3 has 11 allowed cells out of 16 (code never on dfl, data
	// only cacheable in pflash, never cacheable on dfl).
	b.ReportMetric(float64(allowed), "allowed_cells")
}

// benchReadings are fixed Scenario-1-consistent readings used by the
// model-construction benchmarks (5+5 code requests to pf0/pf1 per kilocycle
// scale, 10 lmu data requests — the same shape the simulator produces).
func benchReadings(scale int64) (a, c dsu.Readings) {
	a = dsu.Readings{CCNT: 1000 * scale, PM: 10 * scale, PS: 60 * scale, DS: 100 * scale}
	c = dsu.Readings{CCNT: 1000 * scale, PM: 8 * scale, PS: 48 * scale, DS: 70 * scale}
	return a, c
}

// table5Input is the Table 5 model input for one scenario: benchReadings
// at scale 100, plus cacheable-data misses where the scenario floors them.
func table5Input(sc core.Scenario) core.Input {
	a, c := benchReadings(100)
	if sc.CacheableDataFloor {
		a.DMC, c.DMC = 500, 300
	}
	return core.Input{A: a, B: []dsu.Readings{c}, Lat: &benchLat, Scenario: sc}
}

// BenchmarkTable5Tailoring regenerates Table 5: constructing and solving
// the tailored ILP-PTAC model for both scenarios. TestTable5Bounds pins
// the bound_cycles it reports.
func BenchmarkTable5Tailoring(b *testing.B) {
	for _, sc := range []core.Scenario{core.Scenario1(), core.Scenario2()} {
		b.Run(sc.Name, func(b *testing.B) {
			in := table5Input(sc)
			var est core.Estimate
			for i := 0; i < b.N; i++ {
				var err error
				est, err = core.ILPPTAC(in, core.PTACOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(est.ContentionCycles), "bound_cycles")
			// Node count is the cost driver behind the ns/op above, and
			// unlike ns/op it is exact: a solver change that doubles the
			// tree shows here on any machine.
			b.ReportMetric(float64(est.Nodes), "nodes")
			// Warm-start effectiveness: the fraction of B&B nodes whose LP
			// re-solve reused the parent basis. A fall means relaxations
			// silently went back to cold solves.
			b.ReportMetric(float64(est.WarmStarts)/float64(max(est.Nodes, 1)), "warm_start_rate")
		})
	}
}

// BenchmarkTable6Counters regenerates Table 6: the debug-counter readings
// of the application and the H-Load contender under both scenarios.
func BenchmarkTable6Counters(b *testing.B) {
	for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
		b.Run(fmt.Sprintf("scenario%d", sc), func(b *testing.B) {
			var app dsu.Readings
			for i := 0; i < b.N; i++ {
				var err error
				app, _, err = experiments.NewRunner(campaign.New(0)).Table6Readings(context.Background(), benchLat, sc)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(app.PM), "app_PM")
			b.ReportMetric(float64(app.PS), "app_PS")
			b.ReportMetric(float64(app.DS), "app_DS")
			b.ReportMetric(float64(app.DMD), "app_DMD")
		})
	}
}

// BenchmarkFigure4 regenerates Figure 4 cell by cell: observed slowdown and
// both model predictions, normalised to isolation, per scenario and
// contender load. Each timed iteration runs a fresh campaign engine, so
// trace generation and both simulations are paid every time, but the
// up-front Figure4 call warms the process-wide analyzer's estimate cache:
// every timed solve is a cache hit. ns/op therefore omits the ILP, which
// dominates a cold scenario-2 cell (ilp_nodes, the cell's branch & bound
// node count, shows how much); perfbench's figure4 workload times the
// cold path.
func BenchmarkFigure4(b *testing.B) {
	rows, err := experiments.NewRunner(campaign.New(0)).Figure4(context.Background(), benchLat)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range rows {
		row := row
		b.Run(fmt.Sprintf("scenario%d/%s", row.Scenario, row.Level), func(b *testing.B) {
			b.ReportAllocs()
			var g experiments.Figure4Row
			for i := 0; i < b.N; i++ {
				g, err = experiments.NewRunner(campaign.New(0)).Figure4Cell(context.Background(), benchLat, row.Scenario, row.Level)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(g.ObservedRatio(), "observed_x")
			b.ReportMetric(g.ILP.Ratio(), "ilp_x")
			b.ReportMetric(g.FTC.Ratio(), "ftc_x")
			b.ReportMetric(float64(g.ILP.Nodes), "ilp_nodes")
		})
	}
}

// --- Ablations (DESIGN.md "Design choices worth ablating") ---

// BenchmarkAblationStallMode compares the paper's literal equality stall
// decomposition (Eq. 20-23) against the always-sound budget relaxation on
// simulator-consistent readings: the bounds must coincide, the equality
// variant costing slightly more solve time.
func BenchmarkAblationStallMode(b *testing.B) {
	a, c := benchReadings(50)
	in := core.Input{A: a, B: []dsu.Readings{c}, Lat: &benchLat, Scenario: core.Scenario1()}
	for _, mode := range []core.StallMode{core.StallBudget, core.StallExact} {
		b.Run(mode.String(), func(b *testing.B) {
			var est core.Estimate
			for i := 0; i < b.N; i++ {
				var err error
				est, err = core.ILPPTAC(in, core.PTACOptions{StallMode: mode})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(est.ContentionCycles), "bound_cycles")
		})
	}
}

// BenchmarkAblationContenderInfo quantifies the value of the contender
// constraints (Eq. 22-23): dropping them makes the ILP fully
// time-composable and visibly looser (§3.5).
func BenchmarkAblationContenderInfo(b *testing.B) {
	a, c := benchReadings(50)
	// A light contender makes the information gap large.
	c.PM, c.PS, c.DS = c.PM/4, c.PS/4, c.DS/4
	in := core.Input{A: a, B: []dsu.Readings{c}, Lat: &benchLat, Scenario: core.Scenario1()}
	for _, drop := range []bool{false, true} {
		name := "with-contender-info"
		if drop {
			name = "fully-time-composable"
		}
		b.Run(name, func(b *testing.B) {
			var est core.Estimate
			for i := 0; i < b.N; i++ {
				var err error
				est, err = core.ILPPTAC(in, core.PTACOptions{DropContenderInfo: drop})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(est.ContentionCycles), "bound_cycles")
		})
	}
}

// BenchmarkAblationScenarioTailoring quantifies the value of the Table 5
// counter constraints: the generic deployment-only scenario against the
// fully tailored one. The readings follow the real-hardware shape of the
// paper's Table 6 — per-request stalls well above the Table 2 minima — so
// that the stall budget alone wildly over-counts code requests and the
// PCACHE_MISS equality has something to correct.
func BenchmarkAblationScenarioTailoring(b *testing.B) {
	a := dsu.Readings{CCNT: 500000, PM: 1000, PS: 14500, DS: 50000}
	c := dsu.Readings{CCNT: 500000, PM: 800, PS: 11600, DS: 35000}
	scenarios := map[string]core.Scenario{
		"tailored": core.Scenario1(),
		"generic":  core.GenericScenario(platform.Scenario1()),
	}
	for _, name := range []string{"tailored", "generic"} {
		sc := scenarios[name]
		b.Run(name, func(b *testing.B) {
			in := core.Input{A: a, B: []dsu.Readings{c}, Lat: &benchLat, Scenario: sc}
			var est core.Estimate
			for i := 0; i < b.N; i++ {
				var err error
				est, err = core.ILPPTAC(in, core.PTACOptions{})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(est.ContentionCycles), "bound_cycles")
		})
	}
}

// BenchmarkAblationFSBReduction compares the crossbar-aware fTC bound with
// its single-bus (FSB) collapse (§4.3): the crossbar model is never looser.
func BenchmarkAblationFSBReduction(b *testing.B) {
	a, c := benchReadings(50)
	in := core.Input{A: a, B: []dsu.Readings{c}, Lat: &benchLat, Scenario: core.Scenario1()}
	b.Run("crossbar-fTC", func(b *testing.B) {
		var est core.Estimate
		for i := 0; i < b.N; i++ {
			var err error
			est, err = core.FTC(in)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(est.ContentionCycles), "bound_cycles")
	})
	b.Run("fsb-fTC", func(b *testing.B) {
		var est core.Estimate
		for i := 0; i < b.N; i++ {
			var err error
			est, err = core.FTCFSB(in)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(est.ContentionCycles), "bound_cycles")
	})
}

// BenchmarkAblationMinStallDivisor compares the per-operation minimum
// stall divisors of Eq. 2-3 (code 6, data 10 on the TC27x) against a
// single global minimum (6): the global divisor inflates the data request
// bound and with it the fTC contention bound.
func BenchmarkAblationMinStallDivisor(b *testing.B) {
	a, _ := benchReadings(50)
	b.Run("per-operation", func(b *testing.B) {
		var nCo, nDa int64
		for i := 0; i < b.N; i++ {
			nCo, nDa = core.AccessBounds(a, &benchLat)
		}
		bound := nCo*benchLat.MaxLatencyFor(platform.Code) + nDa*benchLat.MaxLatencyFor(platform.Data)
		b.ReportMetric(float64(bound), "bound_cycles")
	})
	b.Run("global", func(b *testing.B) {
		csMin := benchLat.MinStallFor(platform.Code) // 6, the global minimum
		if d := benchLat.MinStallFor(platform.Data); d < csMin {
			csMin = d
		}
		var nCo, nDa int64
		for i := 0; i < b.N; i++ {
			nCo = (a.PS + csMin - 1) / csMin
			nDa = (a.DS + csMin - 1) / csMin
		}
		bound := nCo*benchLat.MaxLatencyFor(platform.Code) + nDa*benchLat.MaxLatencyFor(platform.Data)
		b.ReportMetric(float64(bound), "bound_cycles")
	})
}

// BenchmarkTable2PrefetchLMin regenerates the lmin column of Table 2: the
// best-case end-to-end latency of a sequential stream with the flash
// prefetch buffers active (paper: 12 cycles on pf vs lmax 16).
func BenchmarkTable2PrefetchLMin(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.NewRunner(campaign.New(0)).CalibrateTable2(context.Background(), benchLat)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.LMinCo >= 0 {
			b.ReportMetric(float64(r.LMinCo), fmt.Sprintf("lmin_%s_co", r.Target))
		}
	}
}

// BenchmarkAblationEnforcement compares the measurement-based ILP bound
// against the knowledge-free enforcement bound (paper ref [16]) at
// increasing contender stall quotas.
func BenchmarkAblationEnforcement(b *testing.B) {
	for _, quota := range []int64{600, 3000, 15000} {
		b.Run(fmt.Sprintf("quota-%d", quota), func(b *testing.B) {
			var bound int64
			for i := 0; i < b.N; i++ {
				bound = core.EnforcedContentionBound(quota, &benchLat)
			}
			b.ReportMetric(float64(bound), "bound_cycles")
		})
	}
}

// BenchmarkSimulatorThroughput measures the substrate itself: simulated
// cycles per second for a contended two-core run, the number that bounds
// every experiment's wall-clock cost. The traces are generated once,
// outside the timer, and rewound per iteration, so the metric covers the
// simulator alone.
func BenchmarkSimulatorThroughput(b *testing.B) {
	app, err := workload.ControlLoop(workload.AppConfig{Scenario: workload.Scenario1, Core: 1, Iterations: 100})
	if err != nil {
		b.Fatal(err)
	}
	cont, err := workload.Contender(workload.ContenderConfig{Level: workload.HLoad, Scenario: workload.Scenario1, Core: 2, Bursts: 2000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var cycles int64
	for i := 0; i < b.N; i++ {
		app.Reset()
		cont.Reset()
		res, err := sim.Run(benchLat, map[int]sim.Task{
			1: {Kind: tricore.TC16P, Src: app},
			2: {Kind: tricore.TC16P, Src: cont},
		}, 1, sim.Config{})
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "sim_cycles/s")
}

// BenchmarkEvaluationCampaign regenerates the paper's full measured
// evaluation (Table 2, Table 6, Figure 4, the OEM sweep) on one shared
// campaign engine per iteration — the whole-paper cost a CI run or an
// interactive session pays, with isolation baselines deduplicated across
// artefacts. The memo counters are reported so cache effectiveness is
// visible next to the wall-clock.
func BenchmarkEvaluationCampaign(b *testing.B) {
	ctx := context.Background()
	var stats campaign.Stats
	for i := 0; i < b.N; i++ {
		eng := campaign.New(0)
		r := experiments.NewRunner(eng)
		if _, err := r.CalibrateTable2(ctx, benchLat); err != nil {
			b.Fatal(err)
		}
		for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
			if _, _, err := r.Table6Readings(ctx, benchLat, sc); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := r.Figure4(ctx, benchLat); err != nil {
			b.Fatal(err)
		}
		if _, err := r.Sweep(ctx, benchLat, experiments.Grid{}); err != nil {
			b.Fatal(err)
		}
		stats = eng.Stats()
	}
	b.ReportMetric(float64(stats.SimRuns), "sim_runs")
	b.ReportMetric(float64(stats.IsolationHits), "memo_hits")
}

// benchServeConfig turns on the observability costs a production daemon
// pays — persisted metrics history on a fast cadence and a slow-request
// threshold low enough that tail sampling stores a trace for essentially
// every request — so the serving benchmarks measure the instrumented
// path, not an idealized one. The logger is leveled above Warn: with a
// microsecond threshold every request is "slow", and formatting a
// slow-request warning per request would measure the logger, not the
// server.
func benchServeConfig(b *testing.B, cfg service.Config) service.Config {
	cfg.ObsDir = b.TempDir()
	cfg.HistoryInterval = 250 * time.Millisecond
	cfg.SlowRequestThreshold = time.Microsecond
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError}))
	return cfg
}

// shutdownAfter stops the server once the benchmark (including its
// reporting) is done. Leaking servers across samples would let each
// abandoned history sampler keep snapshotting the registry on its
// 250ms tick, silently taxing every later benchmark in the run.
func shutdownAfter(b *testing.B, srv *service.Server) {
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	})
}

// BenchmarkWCETServiceBatch drives the wcetd serving layer end to end:
// concurrent 16-request batches, drawn from a small pool of distinct
// queries, against one server — the OEM integration stream the service
// subsystem exists for. Reports sustained items/sec and the
// canonical-request cache hit rate (duplicate submissions must be served
// without re-solving the ILP).
func BenchmarkWCETServiceBatch(b *testing.B) {
	srv := service.New(benchServeConfig(b, service.Config{QueueDepth: 1024}), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shutdownAfter(b, srv)
	client := benchClient(b, runtime.GOMAXPROCS(0))

	batch := service.BatchRequest{}
	for j := 0; j < 16; j++ {
		batch.Requests = append(batch.Requests, service.Request{
			Scenario: 1,
			Analysed: dsu.Readings{CCNT: 157800 + int64(j%8)*1000, PS: 18000, DS: 27000, PM: 3000},
			Contenders: []dsu.Readings{
				{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000},
			},
		})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			drainClose(resp)
		}
	})
	b.StopTimer()

	st := srv.StatsSnapshot()
	if st.BatchItems > 0 {
		b.ReportMetric(float64(st.BatchItems)/b.Elapsed().Seconds(), "items/s")
	}
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		b.ReportMetric(float64(st.Cache.Hits)/float64(lookups), "cache_hit_rate")
	}
}

// BenchmarkCacheHitParallel hammers one already-cached request from every
// proc at once: after a single priming miss, each iteration is a full
// HTTP round-trip that must be answered from the sharded result cache
// without re-solving. This is the serving hot path the shard-per-lock
// cache exists for — run with -cpu 1,2,4 to see the single-mutex ceiling
// it replaced.
func BenchmarkCacheHitParallel(b *testing.B) {
	srv := service.New(benchServeConfig(b, service.Config{QueueDepth: 1024}), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shutdownAfter(b, srv)
	client := benchClient(b, runtime.GOMAXPROCS(0))

	body, err := json.Marshal(service.Request{
		Scenario: 1,
		Analysed: dsu.Readings{CCNT: 157800, PS: 18000, DS: 27000, PM: 3000},
		Contenders: []dsu.Readings{
			{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Prime the cache: exactly one miss, everything timed below is a hit.
	resp, err := client.Post(ts.URL+"/v1/wcet", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	drainClose(resp)

	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(ts.URL+"/v1/wcet", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			drainClose(resp)
		}
	})
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
	st := srv.StatsSnapshot()
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		rate := float64(st.Cache.Hits) / float64(lookups)
		b.ReportMetric(rate, "cache_hit_rate")
		// At real benchtimes the single priming miss vanishes into the
		// noise floor; only tiny -benchtime 1x runs legitimately sit
		// below it.
		if b.N >= 100 && rate < 0.99 {
			b.Errorf("cache_hit_rate = %.3f, want ~1.0 (one priming miss)", rate)
		}
	}
}

// BenchmarkCampaignJob drives one complete campaign job through the full
// wire stack per iteration: POST the grid to /v2/campaigns, follow the
// SSE progress stream until the terminal state event, fetch the
// content-verified artifact, and answer one interactive /v1/wcet request
// while the job's cells are draining through the engine at background
// priority. ns/op is the end-to-end cost of a 24-cell server-side sweep
// — admission, background scheduling, per-cell checkpoint encode, event
// fan-out, SSE delivery and artifact verification all inside the timed
// region — so a regression anywhere in the jobs pipeline (or a priority
// inversion that stalls the interleaved interactive request) moves
// ns/op. cells/s reports sweep throughput; cache_hit_rate covers the
// interactive hits served mid-job.
func BenchmarkCampaignJob(b *testing.B) {
	// Job lifecycle logs would interleave with the benchmark result line
	// in `go test` output (which merges the binary's stderr) and break
	// benchstat parsing — discard them.
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := service.New(service.Config{QueueDepth: 1024, MaxJobs: 1 << 20, Logger: quiet}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := benchClient(b, 1)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			b.Error(err)
		}
	}()

	// 2 scenarios × 3 levels × 4 perturbations × 1 model = 24 cells, the
	// same grid shape scripts/serve_smoke.sh round-trips. Short cells
	// keep one job's wall time in calibration range; isolation baselines
	// memoize on the shared engine, so after the first job every
	// iteration pays the same steady-state cost.
	spec := []byte(`{"grid":{"models":["ftc"],"appIterations":60,"perturbations":[
		{},
		{"name":"up10","scalePercent":110},
		{"name":"up20","scalePercent":120},
		{"name":"down10","scalePercent":90}
	]}}`)

	interactive, err := json.Marshal(service.Request{
		Scenario: 1,
		Analysed: dsu.Readings{CCNT: 157800, PS: 18000, DS: 27000, PM: 3000},
		Contenders: []dsu.Readings{
			{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000},
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	// Prime the result cache: the in-loop interactive request measures
	// the hit path an integrator's repeated what-if queries see.
	resp, err := client.Post(ts.URL+"/v1/wcet", "application/json", bytes.NewReader(interactive))
	if err != nil {
		b.Fatal(err)
	}
	drainClose(resp)

	runJob := func() {
		resp, err := client.Post(ts.URL+"/v2/campaigns", "application/json", bytes.NewReader(spec))
		if err != nil {
			b.Fatal(err)
		}
		var job struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			b.Fatal(err)
		}
		drainClose(resp)
		if resp.StatusCode != http.StatusAccepted || job.ID == "" {
			b.Fatalf("campaign submit: status %d, id %q", resp.StatusCode, job.ID)
		}

		// One interactive round-trip while the job drains: priority
		// admission must serve it without waiting for the sweep.
		resp, err = client.Post(ts.URL+"/v1/wcet", "application/json", bytes.NewReader(interactive))
		if err != nil {
			b.Fatal(err)
		}
		drainClose(resp)
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("interactive request under campaign load: status %d", resp.StatusCode)
		}

		// The SSE stream ends itself after the terminal state event;
		// reading it to EOF is the wire-level "wait for done".
		resp, err = client.Get(ts.URL + "/v2/campaigns/" + job.ID + "/stream")
		if err != nil {
			b.Fatal(err)
		}
		stream, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if !bytes.Contains(stream, []byte(`"state":"done"`)) {
			b.Fatalf("campaign stream ended without a done state:\n%s", stream)
		}

		resp, err = client.Get(ts.URL + "/v2/campaigns/" + job.ID + "/artifact")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("campaign artifact: status %d", resp.StatusCode)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runJob()
	}
	b.StopTimer()

	b.ReportMetric(float64(24*b.N)/b.Elapsed().Seconds(), "cells/s")
	st := srv.StatsSnapshot()
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		b.ReportMetric(float64(st.Cache.Hits)/float64(lookups), "cache_hit_rate")
	}
}

// BenchmarkServeSaturated saturates one server with 4× GOMAXPROCS
// clients mixing single-shot requests from a pool of distinct queries —
// more clients than cores, the oversubscribed posture a shared analysis
// service actually runs at. Unlike BenchmarkCacheHitParallel this stream
// is a hit/miss mix, so it exercises the cache's write path (CLOCK
// eviction, shard routing) and the solver pool under contention, not
// just shard reads.
func BenchmarkServeSaturated(b *testing.B) {
	srv := service.New(benchServeConfig(b, service.Config{QueueDepth: 1024}), nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	shutdownAfter(b, srv)
	const parallelism = 4 // 4× GOMAXPROCS client goroutines
	client := benchClient(b, parallelism*runtime.GOMAXPROCS(0))

	const pool = 64
	bodies := make([][]byte, pool)
	for j := range bodies {
		var err error
		bodies[j], err = json.Marshal(service.Request{
			Scenario: 1,
			Analysed: dsu.Readings{CCNT: 157800 + int64(j)*500, PS: 18000, DS: 27000, PM: 3000},
			Contenders: []dsu.Readings{
				{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000},
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}

	var seq atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(parallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := bodies[int(seq.Add(1))%pool]
			resp, err := client.Post(ts.URL+"/v1/wcet", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			drainClose(resp)
		}
	})
	b.StopTimer()

	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "items/s")
	st := srv.StatsSnapshot()
	if lookups := st.Cache.Hits + st.Cache.Misses; lookups > 0 {
		b.ReportMetric(float64(st.Cache.Hits)/float64(lookups), "cache_hit_rate")
	}
	if b.N > 2*pool && st.Cache.Hits == 0 {
		b.Error("saturated stream never hit the cache")
	}
}

// benchClient returns an HTTP benchmark's own client. Its transport keeps
// up to conns idle connections to the test server, so each of that many
// concurrent clients reuses one loopback connection instead of dialling
// per request, as http.DefaultClient's two idle connections per host
// would force.
func benchClient(b *testing.B, conns int) *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: conns}
	b.Cleanup(tr.CloseIdleConnections)
	return &http.Client{Transport: tr}
}

// drainClose reads the rest of resp's body before closing it, which is
// what lets the transport return the connection to its idle pool.
func drainClose(resp *http.Response) {
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// Command wcetd serves contention-aware WCET analysis over HTTP/JSON —
// the integration workflow at OEM scale: many software providers submit
// DSU readings for their tasks and read back fTC and ILP-PTAC bounds
// (optionally with an RTA schedulability verdict), concurrently.
//
// Endpoints:
//
//	POST /v1/wcet   one request (the cmd/wcet wire format); the response
//	                body is byte-identical to cmd/wcet's stdout for the
//	                same input
//	POST /v1/batch  {"requests": [...]}: fans out across the campaign
//	                worker pool, results in request order
//	GET  /v1/stats  admission-control and cache counters
//	POST /v2/analyze  registry-generic analysis: the caller selects any
//	                subset of registered contention models by name
//	                ({"models": ["ilpPtac", "ftcFsb"], ...}) and gets
//	                exactly those estimates back, in request order
//	GET  /v2/models list of registered models and their aliases
//	GET  /v2/tables list stored latency-table versions, refs and the
//	                serving default; POST registers a new table
//	GET  /v2/tables/{ref}          one table by ref or content address
//	POST /v2/tables/{ref}/promote  atomically hot-swap the serving default
//	POST /v2/calibrate             streaming calibration: DSU readings in,
//	                candidate table + drift report out
//	POST /v2/campaigns             submit an asynchronous grid-sweep
//	                campaign job (validated pre-admission, runs at
//	                background priority on the shared worker pool);
//	                GET lists jobs
//	GET  /v2/campaigns/{id}           job status and progress
//	GET  /v2/campaigns/{id}/artifact  finished, content-verified results
//	GET  /v2/campaigns/{id}/stream    per-cell progress over SSE
//	                (Last-Event-ID resumes after a disconnect or restart)
//	DELETE /v2/campaigns/{id}         cancel
//	GET  /v2/metrics/history?series=&from=&to=&step=  retained metrics
//	                history (checksummed on-disk ring under <data>/obs,
//	                tiered raw → 10s → 1m downsampling, survives kill -9)
//	GET  /v2/alerts active and recently resolved SLO burn-rate alerts
//	GET  /v2/traces?endpoint=&min_ms=&since=  stored trace search
//	                (client-requested traces plus tail-sampled slow and
//	                error requests)
//	GET  /v2/traces/{id}  one stored trace's span tree
//	GET  /healthz   liveness, build identity and uptime
//
// Campaign jobs checkpoint every completed cell under -jobs-dir
// (default: <data>/jobs) and resume from the checkpoint after a crash
// or restart; a resumed job's artifact is byte-identical to an
// uninterrupted run's.
//
// Latency tables are versioned, content-addressed artifacts: -data
// persists them (and their refs) across restarts, and a recalibrated
// table can be registered and promoted on the live daemon — subsequent
// analysis evaluates under it with no restart.
//
// Identical requests are served from a sharded canonical-request result
// cache, so repeat submissions cost zero solver time. Admission control
// bounds concurrent work (-max-inflight), queues a bounded overflow
// (-queue), and times requests out (-timeout). SIGINT/SIGTERM drain
// gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/tabstore"
	"repro/wcet"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "batch worker-pool width (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache", 1024, "canonical-request cache capacity (entries)")
	maxInFlight := flag.Int("max-inflight", 64, "admission-control concurrency limit")
	queueDepth := flag.Int("queue", 256, "admission queue depth beyond the concurrency limit")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout (queue wait included)")
	maxBody := flag.Int64("max-body", 8<<20, "request body size limit in bytes")
	maxBatch := flag.Int("max-batch", 4096, "maximum requests per batch")
	dataDir := flag.String("data", "", "latency-table store directory (empty: in-memory, tables are lost on exit)")
	jobsDir := flag.String("jobs-dir", "", "campaign-job persistence directory (empty: <data>/jobs, or in-memory when -data is empty too)")
	maxJobs := flag.Int("max-jobs", 16, "maximum concurrently admitted campaign jobs")
	tableRef := flag.String("table", "tc27x/default", "table ref to serve under at startup")
	slowReq := flag.Duration("slow-request", time.Second, "log requests slower than this with their trace (negative disables)")
	ops := flag.Bool("ops", false, "expose net/http/pprof under /debug/pprof/ and run the continuous profiler")
	obsDir := flag.String("obs-dir", "", "observability persistence directory for metrics history, stored traces and profiles (empty: <data>/obs, or in-memory when -data is empty too)")
	historyInterval := flag.Duration("history-interval", 5*time.Second, "metrics-history sampling cadence")
	sloConfig := flag.String("slo-config", "", "JSON file defining SLO objectives (empty: built-in defaults)")
	traceEntries := flag.Int("trace-store", 512, "stored-trace retention (entries)")
	logJSON := flag.Bool("log-json", false, "emit logs as JSON instead of text")
	flag.Parse()

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(handler).With("component", "wcetd")
	slog.SetDefault(logger)

	store, err := tabstore.Open(*dataDir)
	if err != nil {
		fail(logger, err)
	}
	// Campaign jobs and observability state persist next to the table
	// store by default, so one -data flag gives the whole daemon durable
	// state.
	if *jobsDir == "" && *dataDir != "" {
		*jobsDir = filepath.Join(*dataDir, "jobs")
	}
	if *obsDir == "" && *dataDir != "" {
		*obsDir = filepath.Join(*dataDir, "obs")
	}
	var objectives []obs.Objective
	if *sloConfig != "" {
		if objectives, err = obs.LoadObjectives(*sloConfig); err != nil {
			fail(logger, fmt.Errorf("-slo-config: %w", err))
		}
	}
	// The service seeds "tc27x/default" itself; any other startup ref
	// must already exist in the store — fail with a usage error rather
	// than the service's construction panic.
	if *tableRef != "tc27x/default" {
		if _, _, err := store.Resolve(*tableRef); err != nil {
			fail(logger, fmt.Errorf("-table: %w", err))
		}
	}

	srv := service.New(service.Config{
		Workers:              *workers,
		CacheEntries:         *cacheEntries,
		MaxInFlight:          *maxInFlight,
		QueueDepth:           *queueDepth,
		RequestTimeout:       *timeout,
		MaxBodyBytes:         *maxBody,
		MaxBatchItems:        *maxBatch,
		TableStore:           store,
		DefaultTableRef:      *tableRef,
		JobsDir:              *jobsDir,
		MaxJobs:              *maxJobs,
		SlowRequestThreshold: *slowReq,
		Logger:               logger,
		EnableOps:            *ops,
		ObsDir:               *obsDir,
		HistoryInterval:      *historyInterval,
		SLOObjectives:        objectives,
		TraceStoreEntries:    *traceEntries,
	}, nil)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(logger, err)
	}
	logger.Info("listening", "addr", ln.Addr().String())
	logger.Info("serving models", "models", strings.Join(wcet.DefaultRegistry().Names(), ", "))
	logger.Info("serving table", "ref", *tableRef, "id", srv.StatsSnapshot().ServingTable)
	if *jobsDir != "" {
		logger.Info("campaign jobs persisted", "dir", *jobsDir, "maxJobs", *maxJobs)
	} else {
		logger.Info("campaign jobs in-memory (no -data/-jobs-dir)", "maxJobs", *maxJobs)
	}
	if *obsDir != "" {
		logger.Info("observability persisted", "dir", *obsDir, "historyInterval", *historyInterval, "traceStore", *traceEntries)
	} else {
		logger.Info("observability in-memory (no -data/-obs-dir)", "historyInterval", *historyInterval)
	}
	if *sloConfig != "" {
		logger.Info("slo objectives loaded", "path", *sloConfig, "count", len(objectives))
	}
	if *ops {
		logger.Info("pprof enabled", "path", "/debug/pprof/", "profiler", *obsDir != "")
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		// Serve only returns on listener failure (Shutdown yields
		// ErrServerClosed, but only after we ask for it below).
		fail(logger, err)
	case <-ctx.Done():
	}

	logger.Info("draining")
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		fail(logger, fmt.Errorf("shutdown: %w", err))
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		fail(logger, err)
	}
	srv.LogSummary()
	logger.Info("shut down cleanly")
}

func fail(logger *slog.Logger, err error) {
	logger.Error(err.Error())
	os.Exit(1)
}

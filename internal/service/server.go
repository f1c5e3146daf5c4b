package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/calib"
	"repro/internal/campaign"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/tabstore"
	"repro/internal/telemetry"
	"repro/wcet"
)

// Config sizes the daemon. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// Workers is the campaign-engine pool width batch requests fan out
	// across; <= 0 selects GOMAXPROCS.
	Workers int
	// CacheEntries caps the canonical-request result cache; <= 0 selects
	// 1024.
	CacheEntries int
	// MaxInFlight is the admission-control concurrency limit: how many
	// requests may be past admission at once; <= 0 selects 64.
	MaxInFlight int
	// QueueDepth is how many requests may wait for admission before new
	// arrivals are rejected as overload; < 0 selects 256, 0 means no
	// queue (reject as soon as MaxInFlight is reached).
	QueueDepth int
	// RequestTimeout bounds each request (queue wait included) via its
	// context; <= 0 selects 30 seconds.
	RequestTimeout time.Duration
	// MaxBodyBytes caps a request body — decode work happens before
	// admission control, so it must be bounded independently; <= 0
	// selects 8 MiB.
	MaxBodyBytes int64
	// MaxBatchItems caps the cells of one batch request (one admission
	// unit); <= 0 selects 4096.
	MaxBatchItems int
	// Registry is the contention-model registry /v2/analyze serves; nil
	// selects the shared wcet.DefaultRegistry. /v1 computes the ftc and
	// ilpPtac pair unconditionally, so a registry without them (any
	// wcet.NewDefaultRegistry-derived registry has them) yields a
	// v2-only server whose /v1 requests fail with an unknown-model error.
	// A registry with no models at all is a programming error: New panics.
	Registry *wcet.Registry
	// TableStore is the versioned latency-table store backing /v2/tables
	// and /v2/calibrate; nil selects a fresh in-memory store. The TC27x
	// characterisation is seeded under the ref "tc27x/default" when that
	// ref is absent.
	TableStore *tabstore.Store
	// DefaultTableRef names the table the server starts serving under;
	// empty selects "tc27x/default". It must resolve in TableStore after
	// seeding, else New panics — a server cannot run without a
	// characterisation.
	DefaultTableRef string
	// JobsDir is the campaign-job persistence root (conventionally next
	// to the tabstore data dir; cmd/wcetd derives it from -data). Empty
	// runs jobs in-memory: /v2/campaigns works, but jobs are lost on
	// restart instead of resuming from their checkpoints.
	JobsDir string
	// MaxJobs bounds concurrently active (pending + running) campaign
	// jobs; <= 0 selects 16. Cells of admitted jobs share the campaign
	// engine at Background priority, so this caps queued work, not
	// parallelism.
	MaxJobs int
	// SlowRequestThreshold is the latency above which a request is
	// logged (with its trace) as slow; 0 selects 1 second, negative
	// disables slow-request logging.
	SlowRequestThreshold time.Duration
	// Logger receives the server's structured diagnostics (slow
	// requests, shutdown summary); nil selects slog.Default().
	Logger *slog.Logger
	// EnableOps additionally mounts net/http/pprof under /debug/pprof/
	// (cmd/wcetd exposes this as -ops) and, when ObsDir is set, runs the
	// continuous profiler. Off by default: profiling handlers do not
	// belong on an unguarded production surface.
	EnableOps bool
	// ObsDir is the observability persistence root (cmd/wcetd derives it
	// from -data): metrics history segments, stored traces and captured
	// profiles live under it. Empty keeps history and traces in bounded
	// memory only — the APIs work, but nothing survives a restart.
	ObsDir string
	// HistoryInterval is the metrics-history sampling cadence; <= 0
	// selects 5 seconds, and anything under a second is raised to it
	// (sub-second full-registry snapshots are dashboard poison).
	HistoryInterval time.Duration
	// SLOObjectives overrides the built-in SLO set (cmd/wcetd loads it
	// from -slo-config); nil selects obs.DefaultObjectives.
	SLOObjectives []obs.Objective
	// TraceStoreEntries bounds retained traces; <= 0 selects 512.
	TraceStoreEntries int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 4096
	}
	if c.DefaultTableRef == "" {
		c.DefaultTableRef = "tc27x/default"
	}
	if c.SlowRequestThreshold == 0 {
		c.SlowRequestThreshold = time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.HistoryInterval <= 0 {
		c.HistoryInterval = 5 * time.Second
	}
	if c.TraceStoreEntries <= 0 {
		c.TraceStoreEntries = 512
	}
	return c
}

// BatchRequest is the wire format of POST /v1/batch: an ordered set of
// independent analysis requests, typically one provider's whole task
// portfolio.
type BatchRequest struct {
	Requests []Request `json:"requests"`
}

// BatchItem is one request's outcome within a batch: exactly one of
// Response and Error is set. A batch never fails wholesale because one
// cell is malformed — mirroring campaign.All's per-cell error collection.
type BatchItem struct {
	Response *Response `json:"response,omitempty"`
	Error    string    `json:"error,omitempty"`
}

// BatchResponse is the wire format of a batch reply, results in request
// order.
type BatchResponse struct {
	Results []BatchItem `json:"results"`
}

// CacheStats reports the canonical-request cache counters.
type CacheStats struct {
	// Hits counts requests served from the result cache without touching
	// the models.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to evaluate.
	Misses int64 `json:"misses"`
	// Dedup counts requests that piggybacked on an identical in-flight
	// evaluation instead of starting their own (not counted in Misses).
	Dedup     int64 `json:"dedup"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
	Evictions int64 `json:"evictions"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	Workers     int `json:"workers"`
	MaxInFlight int `json:"maxInFlight"`
	QueueDepth  int `json:"queueDepth"`

	InFlight int64 `json:"inFlight"`
	Queued   int64 `json:"queued"`

	Accepted         int64 `json:"accepted"`
	RejectedOverload int64 `json:"rejectedOverload"`
	Canceled         int64 `json:"canceled"`

	SingleRequests    int64 `json:"singleRequests"`
	BatchRequests     int64 `json:"batchRequests"`
	BatchItems        int64 `json:"batchItems"`
	V2Requests        int64 `json:"v2Requests"`
	TableRequests     int64 `json:"tableRequests"`
	CalibrateRequests int64 `json:"calibrateRequests"`

	// ServingTable is the content address of the latency table analysis
	// requests currently evaluate under by default.
	ServingTable string `json:"servingTable"`

	Cache CacheStats `json:"cache"`
}

// errOverloaded is the admission-control rejection.
var errOverloaded = errors.New("service: overloaded: concurrency limit reached and queue full")

// flight is one in-progress evaluation; identical concurrent requests
// wait on done instead of solving the same ILP twice.
type flight struct {
	done chan struct{}
	val  *cached
	err  error
}

// Server serves the contention models over HTTP with admission control
// and content-addressed caching. Construct with New; a Server is safe
// for concurrent use.
type Server struct {
	cfg      Config
	engine   *campaign.Engine
	cache    *resultCache
	analyzer *wcet.Analyzer

	// store holds every registered latency-table version; serving is the
	// content address analysis evaluates under by default, swapped
	// atomically by /v2/tables/{ref}/promote.
	store   *tabstore.Store
	serving atomic.Value // tabstore.ID

	// calibEng is the streaming calibration session /v2/calibrate feeds.
	calibMu  sync.Mutex
	calibEng *calib.Engine

	sem    chan struct{}
	queued atomic.Int64

	flightMu sync.Mutex
	flights  map[string]*flight

	// metrics is the server's telemetry set — the single source of truth
	// for both GET /metrics and the wire-stable /v1/stats payload.
	metrics *serverMetrics
	logger  *slog.Logger

	// jobs is the campaign-job subsystem behind /v2/campaigns.
	jobs *jobs.Manager

	// streamDone ends open /v2/stats/stream connections when graceful
	// shutdown begins, so they cannot hold the drain hostage.
	streamDone chan struct{}
	streamOnce sync.Once

	// The observability persistence layer: metrics history, SLO engine,
	// stored traces, and (behind EnableOps+ObsDir) the profiler.
	history    *obs.TSDB
	sloEngine  *obs.Engine
	traceStore *obs.TraceStore
	profiler   *obs.Profiler
	started    time.Time

	// alertSubs fans fired SLO alerts out to open SSE streams.
	alertMu   sync.Mutex
	alertSubs map[chan obs.Alert]struct{}

	// samplerDone stops the history sampling loop on Shutdown.
	samplerDone chan struct{}
	samplerOnce sync.Once
	samplerWG   sync.WaitGroup

	// slowTrace{Sec,N} implement the per-second budget on tail-sampled
	// slow-trace stores (see allowSlowTrace). Atomics, not a mutex: this
	// sits on every request's exit path, where a shared lock would become
	// a serialization point under saturation.
	slowTraceSec atomic.Int64
	slowTraceN   atomic.Int64

	httpSrv *http.Server
}

// New builds a server. The engine may be shared with other subsystems
// (its slot semaphore then bounds their combined parallelism); pass nil
// to get a private pool of cfg.Workers width.
func New(cfg Config, engine *campaign.Engine) *Server {
	cfg = cfg.withDefaults()
	if engine == nil {
		engine = campaign.New(cfg.Workers)
	}
	// The server gets its own analyzer with intra-request concurrency 1:
	// every cache miss already runs as one engine-slot campaign job, so
	// fanning a request's models out in parallel inside that slot would
	// multiply concurrent solves past the Workers bound admission control
	// exists to enforce.
	reg := cfg.Registry
	if reg == nil {
		reg = wcet.DefaultRegistry()
	}
	if len(reg.Names()) == 0 {
		panic("service: Config.Registry has no registered models")
	}
	// Seed the table store: the TC27x characterisation is always
	// registered, and the canonical ref for it is created unless the
	// caller's store already claims it.
	store := cfg.TableStore
	if store == nil {
		var err error
		if store, err = tabstore.Open(""); err != nil {
			panic(fmt.Sprintf("service: %v", err))
		}
	}
	tc27xID, err := store.Put(wcet.TC27x())
	if err != nil {
		panic(fmt.Sprintf("service: seeding tc27x table: %v", err))
	}
	if _, _, err := store.Resolve("tc27x/default"); err != nil {
		if err := store.SetRef("tc27x/default", tc27xID); err != nil {
			panic(fmt.Sprintf("service: seeding tc27x/default ref: %v", err))
		}
	}
	_, servingID, err := store.Resolve(cfg.DefaultTableRef)
	if err != nil {
		panic(fmt.Sprintf("service: default table ref does not resolve: %v", err))
	}
	opts := []wcet.Option{wcet.WithRegistry(reg), wcet.WithConcurrency(1), wcet.WithTableStore(store)}
	analyzer, err := wcet.NewAnalyzer(opts...)
	if err != nil {
		// The registry lacks the v1 pair — a v2-only deployment. Default
		// the model set to whatever is registered so the server still
		// constructs; /v1 requests then fail individually.
		analyzer = wcet.MustNewAnalyzer(append(opts, wcet.WithModels(reg.Names()...))...)
	}
	metrics := newServerMetrics()
	s := &Server{
		cfg:         cfg,
		engine:      engine,
		cache:       newResultCache(cfg.CacheEntries, metrics.cacheHits, metrics.cacheMisses, metrics.cacheEvictions, metrics.cacheContention),
		analyzer:    analyzer,
		store:       store,
		sem:         make(chan struct{}, cfg.MaxInFlight),
		flights:     make(map[string]*flight),
		metrics:     metrics,
		logger:      cfg.Logger,
		streamDone:  make(chan struct{}),
		started:     time.Now(),
		alertSubs:   make(map[chan obs.Alert]struct{}),
		samplerDone: make(chan struct{}),
	}
	s.serving.Store(servingID)
	// The job manager shares the server's engine, so campaign cells and
	// interactive traffic drain through one bounded slot pool — jobs at
	// Background priority. Opening it also resumes any checkpointed jobs
	// a previous process left unfinished in JobsDir.
	jm, err := jobs.Open(jobs.Config{
		Dir:       cfg.JobsDir,
		MaxActive: cfg.MaxJobs,
		Engine:    engine,
		Store:     store,
		Registry:  reg,
		Logger:    cfg.Logger,
	})
	if err != nil {
		panic(fmt.Sprintf("service: opening job manager: %v", err))
	}
	s.jobs = jm
	metrics.reg.GaugeFunc("wcetd_queue_depth",
		"Requests currently waiting for admission.",
		func() float64 { return float64(s.queued.Load()) })
	metrics.reg.GaugeFunc("wcetd_cache_entries",
		"Result-cache entries currently resident.",
		func() float64 { return float64(s.cache.len()) })
	metrics.reg.Info("wcetd_build_info",
		"Build identity: module version, Go toolchain, VCS revision.",
		buildInfoLabels())
	metrics.reg.GaugeFunc("wcetd_uptime_seconds",
		"Seconds since this server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	s.openObservability()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/wcet", s.instrument("v1_wcet", true, s.handleSingle))
	mux.HandleFunc("/v1/batch", s.instrument("v1_batch", true, s.handleBatch))
	mux.HandleFunc("/v1/stats", s.instrument("v1_stats", false, s.handleStats))
	mux.HandleFunc("/v2/analyze", s.instrument("v2_analyze", true, s.handleV2Analyze))
	mux.HandleFunc("/v2/models", s.instrument("v2_models", false, s.handleV2Models))
	mux.HandleFunc("/v2/tables", s.instrument("v2_tables", false, s.handleTables))
	mux.HandleFunc("/v2/tables/", s.instrument("v2_tables", false, s.handleTableByRef))
	mux.HandleFunc("/v2/calibrate", s.instrument("v2_calibrate", false, s.handleCalibrate))
	mux.HandleFunc("/v2/campaigns", s.instrument("v2_campaigns", false, s.handleCampaigns))
	mux.HandleFunc("/v2/campaigns/", s.routeCampaign)
	mux.HandleFunc("/v2/stats/stream", s.instrument("v2_stats_stream", false, s.handleStatsStream))
	mux.HandleFunc("/v2/metrics/history", s.instrument("v2_metrics_history", false, s.handleMetricsHistory))
	mux.HandleFunc("/v2/alerts", s.instrument("v2_alerts", false, s.handleAlerts))
	mux.HandleFunc("/v2/traces", s.instrument("v2_traces", false, s.handleTraces))
	mux.HandleFunc("/v2/traces/", s.instrument("v2_traces", false, s.handleTraceByID))
	mux.HandleFunc("/v2/dashboard", s.instrument("v2_dashboard", false, s.handleDashboard))
	mux.HandleFunc("/metrics", s.instrument("metrics", false, s.handleMetrics))
	mux.HandleFunc("/healthz", s.instrument("healthz", false, s.handleHealth))
	if cfg.EnableOps {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.httpSrv = &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		// Bodies are read (and decoded) before admission control, so a
		// slow-trickling client must be cut off by the transport: the
		// per-request context starts only after decode.
		ReadTimeout: cfg.RequestTimeout,
	}
	// End open SSE streams as soon as a graceful drain begins (Shutdown
	// may run more than once; the channel closes once).
	s.httpSrv.RegisterOnShutdown(func() {
		s.streamOnce.Do(func() { close(s.streamDone) })
	})
	return s
}

// Handler exposes the routing for tests and embedding.
func (s *Server) Handler() http.Handler { return s.httpSrv.Handler }

// Serve accepts connections on ln until Shutdown.
func (s *Server) Serve(ln net.Listener) error { return s.httpSrv.Serve(ln) }

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Shutdown gracefully drains the server: no new connections, in-flight
// requests run to completion or to ctx's deadline, and running campaign
// jobs checkpoint and stop — their persisted state resumes on the next
// start.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.httpSrv.Shutdown(ctx)
	if jerr := s.jobs.Close(ctx); err == nil {
		err = jerr
	}
	s.closeObservability()
	return err
}

// StatsSnapshot returns the current counters (what /v1/stats serves),
// read from the telemetry registry — /v1/stats and /metrics can never
// disagree. The payload is wire-stable: fields, names and meanings
// predate the telemetry layer. Endpoint counters now tick at the mux
// (method-mismatched requests included), which only widens them.
func (s *Server) StatsSnapshot() Stats {
	m := s.metrics
	return Stats{
		Workers:           s.engine.Workers(),
		MaxInFlight:       s.cfg.MaxInFlight,
		QueueDepth:        s.cfg.QueueDepth,
		InFlight:          m.inFlight.Value(),
		Queued:            s.queued.Load(),
		Accepted:          m.accepted.Value(),
		RejectedOverload:  m.rejected.Value(),
		Canceled:          m.canceled.Value(),
		SingleRequests:    m.requests.With("v1_wcet").Value(),
		BatchRequests:     m.requests.With("v1_batch").Value(),
		BatchItems:        m.batchItems.Value(),
		V2Requests:        m.requests.With("v2_analyze").Value(),
		TableRequests:     m.requests.With("v2_tables").Value(),
		CalibrateRequests: m.requests.With("v2_calibrate").Value(),
		ServingTable:      string(s.servingID()),
		Cache: CacheStats{
			Hits:      m.cacheHits.Value(),
			Misses:    m.cacheMisses.Value(),
			Dedup:     m.dedup.Value(),
			Entries:   s.cache.len(),
			Capacity:  s.cfg.CacheEntries,
			Evictions: m.cacheEvictions.Value(),
		},
	}
}

// admit applies admission control: immediate admission while capacity
// remains, bounded queueing after that, rejection beyond the queue. The
// returned release must be called exactly once when the admitted work
// finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		s.metrics.canceled.Inc()
		return nil, err
	}
	admitted := false
	select {
	case s.sem <- struct{}{}:
		admitted = true
	default:
	}
	if !admitted {
		if s.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.queued.Add(-1)
			s.metrics.rejected.Inc()
			return nil, errOverloaded
		}
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
		case <-ctx.Done():
			s.queued.Add(-1)
			s.metrics.canceled.Inc()
			return nil, ctx.Err()
		}
	}
	s.metrics.accepted.Inc()
	s.metrics.inFlight.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			s.metrics.inFlight.Add(-1)
			<-s.sem
		})
	}, nil
}

// lookupOrCompute is the one cache-accounting point per request, which
// ends up counted exactly once: as a hit (served from the cache), a dedup
// (joined an identical in-flight evaluation) or a miss (evaluated).
// compute is the version-specific evaluation (v1 or v2); the admission,
// caching and singleflight machinery is shared. ctx carries the request
// trace (when one is active) into the evaluation's spans, and bounds only
// a join wait: an evaluation, once started, runs to completion so its
// result can be cached for the next asker.
func (s *Server) lookupOrCompute(ctx context.Context, key string, compute func(context.Context) (*cached, error)) (*cached, error) {
	if v, ok := s.cache.getHit(key); ok {
		return v, nil
	}
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		s.metrics.dedup.Inc()
		_, jspan := telemetry.StartSpan(ctx, "join")
		defer jspan.End()
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Re-check under flightMu: an evaluation stores its result before it
	// deregisters its flight, so a key with no flight here is either
	// cached or not being evaluated — it is never evaluated twice.
	if v, ok := s.cache.getHit(key); ok {
		s.flightMu.Unlock()
		return v, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()
	s.metrics.cacheMisses.Inc()

	ectx, espan := telemetry.StartSpan(ctx, "evaluate")
	f.val, f.err = compute(ectx)
	espan.End()
	if f.err == nil {
		s.cache.put(key, f.val)
	}
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(f.done)
	return f.val, f.err
}

// evaluateEncoded runs the v1 models under the given table version and
// freezes the response together with its canonical encoding.
func (s *Server) evaluateEncoded(ctx context.Context, req Request, table tabstore.ID) (*cached, error) {
	resp, err := evaluateWith(ctx, s.analyzer, req, string(table))
	if err != nil {
		return nil, err
	}
	body, err := encodeRetained(resp)
	if err != nil {
		return nil, err
	}
	return &cached{resp: resp, body: body}, nil
}

// evaluateV2Encoded runs an already-prepared request's selected models and
// freezes the v2 response with its canonical encoding.
func (s *Server) evaluateV2Encoded(ctx context.Context, sdkReq wcet.Request) (*cached, error) {
	resp, err := evaluateV2Prepared(ctx, s.analyzer, sdkReq)
	if err != nil {
		return nil, err
	}
	body, err := encodeRetained(resp)
	if err != nil {
		return nil, err
	}
	return &cached{resp: resp, body: body}, nil
}

// requestCtx applies the per-request timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

func (s *Server) handleSingle(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	req, err := DecodeRequest(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	if err := req.validate(s.analyzer.Registry()); err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Pin the serving table once per request: the result key carries its
	// content address, so a mid-request promote can neither poison the
	// cache nor mix tables within one evaluation.
	table := s.servingID()
	s.serveCached(w, r, tableKey(canonicalKeyReg(s.analyzer.Registry(), req), table), func(ctx context.Context) (*cached, error) {
		return s.evaluateEncoded(ctx, req, table)
	})
}

// tableKey scopes a canonical request key to one table version.
func tableKey(base string, table tabstore.ID) string {
	return base + ";tab=" + string(table)
}

// handleV2Analyze serves the registry-generic analysis endpoint: the
// caller names any subset of registered models and gets exactly those
// estimates, through the same admission, caching and singleflight path as
// /v1.
func (s *Server) handleV2Analyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var req V2Request
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &req); err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	sdkReq, err := req.Prepare(s.analyzer.Registry())
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Resolve the request's table selection (a ref or ID; empty selects
	// the serving default) to its content address now: evaluation and
	// cache key then agree on the exact table version even if a ref is
	// retargeted or the default promoted mid-flight.
	table := s.servingID()
	if req.Table != "" {
		var rerr error
		if _, table, rerr = s.store.Resolve(req.Table); rerr != nil {
			httpError(w, http.StatusBadRequest, rerr)
			return
		}
	}
	sdkReq.TableRef = string(table)
	s.serveCached(w, r, tableKey(CanonicalKeyV2(s.analyzer.Registry(), req), table), func(ctx context.Context) (*cached, error) {
		return s.evaluateV2Encoded(ctx, sdkReq)
	})
}

// handleV2Models lists the registry: canonical names plus accepted
// aliases, so integrators can discover what /v2/analyze will run.
func (s *Server) handleV2Models(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	reg := s.analyzer.Registry()
	var out V2ModelsResponse
	for _, name := range reg.Names() {
		out.Models = append(out.Models, V2ModelInfo{Name: name, Aliases: reg.Aliases(name)})
	}
	writeJSON(w, http.StatusOK, out)
}

// serveCached is the shared single-request serving path of /v1/wcet and
// /v2/analyze: pre-admission cache probe, admission control, evaluation on
// the engine's bounded pool, deadline handling.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) (*cached, error)) {
	// Cache hits bypass admission control entirely: they cost a map
	// lookup, and admission protects solver capacity, not the mux. The
	// probe counts only hits — if admission rejects this request below,
	// no evaluation was scheduled and the miss counter must not move.
	_, cspan := telemetry.StartSpan(r.Context(), "cache")
	c, hit := s.cache.getHit(key)
	cspan.SetAttr("hit", hit)
	cspan.End()
	if hit {
		writeBody(w, c.body)
		return
	}

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	actx, aspan := telemetry.StartSpan(ctx, "admission")
	release, err := s.admit(actx)
	aspan.End()
	if err != nil {
		admissionError(w, err)
		return
	}

	// The evaluation itself is not preemptible (the ILP solver runs to
	// completion), so run it aside and give up at the deadline; the
	// orphaned result still lands in the cache, and the admission slot
	// is held until the solver actually finishes. The solve runs as a
	// one-cell campaign so single-request misses and batch cells share
	// the engine's bounded pool rather than racing past it.
	type outcome struct {
		c   *cached
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer release()
		outs := campaign.All(ctx, s.engine, []campaign.Job[*cached]{
			func(ctx context.Context) (*cached, error) {
				return s.lookupOrCompute(ctx, key, compute)
			},
		})
		ch <- outcome{outs[0].Value, outs[0].Err}
	}()
	select {
	case out := <-ch:
		switch {
		case out.err == nil:
			writeBody(w, out.c.body)
		case errors.Is(out.err, context.DeadlineExceeded) || errors.Is(out.err, context.Canceled):
			// The deadline fired while joining an identical in-flight
			// evaluation: a server-side timeout, not a bad request.
			s.metrics.canceled.Inc()
			httpError(w, http.StatusServiceUnavailable, fmt.Errorf("request timed out: %w", out.err))
		default:
			httpError(w, http.StatusUnprocessableEntity, out.err)
		}
	case <-ctx.Done():
		s.metrics.canceled.Inc()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("request timed out: %w", ctx.Err()))
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	var batch BatchRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), &batch); err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	if len(batch.Requests) > s.cfg.MaxBatchItems {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d requests exceeds the %d-item limit", len(batch.Requests), s.cfg.MaxBatchItems))
		return
	}
	s.metrics.batchItems.Add(int64(len(batch.Requests)))

	ctx, cancel := s.requestCtx(r)
	defer cancel()
	actx, aspan := telemetry.StartSpan(ctx, "admission")
	release, err := s.admit(actx)
	aspan.End()
	if err != nil {
		admissionError(w, err)
		return
	}

	// Fan the batch out across the campaign engine: each request is one
	// independent cell, results come back in input order, and the
	// engine-level slot semaphore bounds total parallelism across every
	// concurrent batch. The serving table is pinned once for the whole
	// batch, so all cells evaluate under one characterisation.
	table := s.servingID()
	ch := make(chan []campaign.Outcome[*cached], 1)
	go func() {
		defer release()
		ch <- campaign.Batch(ctx, s.engine, batch.Requests, func(ctx context.Context, req Request) (*cached, error) {
			if err := req.validate(s.analyzer.Registry()); err != nil {
				return nil, err
			}
			return s.lookupOrCompute(ctx, tableKey(canonicalKeyReg(s.analyzer.Registry(), req), table), func(ctx context.Context) (*cached, error) {
				return s.evaluateEncoded(ctx, req, table)
			})
		})
	}()
	var outcomes []campaign.Outcome[*cached]
	select {
	case outcomes = <-ch:
	case <-ctx.Done():
		s.metrics.canceled.Inc()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("batch timed out: %w", ctx.Err()))
		return
	}

	out := BatchResponse{Results: make([]BatchItem, len(outcomes))}
	for i, o := range outcomes {
		if o.Err != nil {
			out.Results[i] = BatchItem{Error: o.Err.Error()}
		} else {
			out.Results[i] = BatchItem{Response: o.Value.resp.(*Response)}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("GET required"))
		return
	}
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// healthPayload is the GET /healthz body: liveness plus build identity
// and uptime, so one probe answers "is it up" and "what is it".
type healthPayload struct {
	Status        string `json:"status"`
	Version       string `json:"version"`
	GoVersion     string `json:"goVersion"`
	Revision      string `json:"revision"`
	UptimeSeconds int64  `json:"uptimeSeconds"`
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	labels := buildInfoLabels()
	writeJSON(w, http.StatusOK, healthPayload{
		Status:        "ok",
		Version:       labels["version"],
		GoVersion:     labels["go"],
		Revision:      labels["revision"],
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
	})
}

// decodeStatus distinguishes an over-limit body (413) from malformed
// JSON (400).
func decodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(body)
}

// admissionError maps admission failures to status codes: overload is
// 429 (the client should back off and retry), cancellation/timeout while
// queued is 503.
func admissionError(w http.ResponseWriter, err error) {
	if errors.Is(err, errOverloaded) {
		httpError(w, http.StatusTooManyRequests, err)
		return
	}
	httpError(w, http.StatusServiceUnavailable, err)
}

type errorBody struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

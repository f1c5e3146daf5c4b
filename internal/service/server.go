package service

import (
	"bytes"
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
	"repro/internal/jsonenc"
	"repro/internal/obs"
	"repro/internal/tabstore"
	"repro/internal/telemetry"
	"repro/wcet"
)

// Config sizes the daemon. The zero value is usable: every field has a
// default applied by New.
type Config struct {
	// Workers is the width of the private campaign engine New builds
	// when it is given none; <= 0 selects GOMAXPROCS. The engine's width
	// is how many analysis requests solve at once.
	Workers int
	// CacheEntries caps the canonical-request result cache; <= 0 selects
	// 1024.
	CacheEntries int
	// QueueDepth is how many admitted analysis requests may wait for an
	// engine slot beyond the engine's width; arrivals past that are
	// rejected as overload. < 0 selects 256, 0 means no queue.
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
	// v2-only server whose /v1 requests fail validation (400) with an
	// unknown-model error.
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
	// (cmd/wcetd exposes this as -ops). Off by default: profiling
	// handlers do not belong on an unguarded production surface.
	EnableOps bool
	// ObsDir is the observability persistence root (cmd/wcetd derives it
	// from -data): metrics history segments and stored traces live
	// under it. Empty keeps history and traces in bounded memory only —
	// the APIs work, but nothing survives a restart.
	ObsDir string
	// HistoryInterval is the metrics-history sampling cadence; <= 0
	// selects 5 seconds, and anything under a second is raised to it
	// (sub-second full-registry snapshots are dashboard poison).
	HistoryInterval time.Duration
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
	Workers int `json:"workers"`
	// MaxInFlight is how many admitted requests solve at once: the
	// engine's width, as Workers. QueueDepth more may wait for a slot.
	MaxInFlight int `json:"maxInFlight"`
	QueueDepth  int `json:"queueDepth"`

	// InFlight counts the admitted analysis requests; Queued is how many
	// of them exceed the engine's width.
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

	// inFlight counts the admitted analysis requests, running or waiting
	// for an engine slot; admit bounds it.
	inFlight atomic.Int64

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

	// The observability persistence layer: metrics history and stored
	// traces.
	history    *obs.TSDB
	traceStore *obs.TraceStore
	started    time.Time

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
	opts := []wcet.Option{wcet.WithRegistry(reg), wcet.WithTableStore(store)}
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
		cache:       newResultCache(cfg.CacheEntries, metrics.cacheHits, metrics.cacheEvictions, metrics.cacheContention),
		analyzer:    analyzer,
		store:       store,
		flights:     make(map[string]*flight),
		metrics:     metrics,
		logger:      cfg.Logger,
		streamDone:  make(chan struct{}),
		started:     time.Now(),
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
	metrics.reg.GaugeFunc("wcetd_in_flight",
		"Analysis requests currently past admission control, solving or waiting for an engine slot.",
		func() float64 { return float64(s.inFlight.Load()) })
	metrics.reg.GaugeFunc("wcetd_queue_depth",
		"Admitted analysis requests beyond the engine's width: max(0, in flight - workers).",
		func() float64 { return float64(s.queued()) })
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
		MaxInFlight:       s.engine.Workers(),
		QueueDepth:        s.cfg.QueueDepth,
		InFlight:          s.inFlight.Load(),
		Queued:            s.queued(),
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

// admit applies admission control: it counts the request in, up to the
// engine's width plus QueueDepth, and rejects it beyond that. It does not
// wait: an admitted request waits for its engine slot in the engine, under
// its deadline. The returned release must be called exactly once when the
// admitted work finishes.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if err := ctx.Err(); err != nil {
		s.metrics.canceled.Inc()
		return nil, err
	}
	if s.inFlight.Add(1) > int64(s.engine.Workers()+s.cfg.QueueDepth) {
		s.inFlight.Add(-1)
		s.metrics.rejected.Inc()
		return nil, errOverloaded
	}
	s.metrics.accepted.Inc()
	return func() { s.inFlight.Add(-1) }, nil
}

// queued is how many admitted requests exceed the engine's width: at
// least that many are waiting for a slot.
func (s *Server) queued() int64 {
	return max(0, s.inFlight.Load()-int64(s.engine.Workers()))
}

// lookupOrCompute is the one cache-accounting point per request, which
// ends up counted exactly once: as a hit (served from the cache), a dedup
// (joined an identical in-flight evaluation) or a miss (evaluated).
// compute is the miss-path evaluation (evaluateEncoded, for every
// analysis endpoint). ctx carries the request trace (when one is active)
// into the evaluation's spans and bounds both the evaluation and a join
// wait. Only a finished evaluation is cached: one stopped by its leader's
// deadline is not, and a joiner whose own deadline is still live takes
// it over as the new leader (still counted once, as its dedup).
func (s *Server) lookupOrCompute(ctx context.Context, key string, compute func(context.Context) (*cached, error)) (*cached, error) {
	joined := false
	for {
		if v, ok := s.cache.get(key); ok {
			return v, nil
		}
		s.flightMu.Lock()
		f, ok := s.flights[key]
		if !ok {
			break // flightMu is held
		}
		s.flightMu.Unlock()
		if !joined {
			joined = true
			s.metrics.dedup.Inc()
		}
		_, jspan := telemetry.StartSpan(ctx, "join")
		select {
		case <-f.done:
		case <-ctx.Done():
			jspan.End()
			return nil, ctx.Err()
		}
		jspan.End()
		if !stopped(f.err) || ctx.Err() != nil {
			return f.val, f.err
		}
	}
	// Re-check under flightMu: an evaluation stores its result before it
	// deregisters its flight, so a key with no flight here is either
	// cached or not being evaluated — it is never evaluated twice.
	if v, ok := s.cache.get(key); ok {
		s.flightMu.Unlock()
		return v, nil
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()
	if !joined {
		s.metrics.cacheMisses.Inc()
	}

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

// stopped reports whether err ends an evaluation its context stopped (a
// deadline or a client gone), rather than one that ran to its answer.
func stopped(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

// evaluateEncoded is the miss path of every analysis endpoint: it
// evaluates an already-prepared request and freezes the version-shaped
// response together with its canonical encoding.
func (s *Server) evaluateEncoded(ctx context.Context, sdkReq wcet.Request, v apiVersion) (*cached, error) {
	resp, err := evaluate(ctx, s.analyzer, sdkReq, v)
	if err != nil {
		return nil, err
	}
	body, err := encodeRetained(resp)
	if err != nil {
		return nil, err
	}
	return &cached{body: body}, nil
}

// requestCtx applies the per-request timeout.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// handleSingle serves /v1/wcet as the fixed-pair view of /v2/analyze.
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
	s.serveAnalysis(w, r, req.asV2(), apiV1)
}

// handleV2Analyze serves the registry-generic analysis endpoint: the
// caller names any subset of registered models and gets exactly those
// estimates.
func (s *Server) handleV2Analyze(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	req, err := DecodeV2Request(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		httpError(w, decodeStatus(err), err)
		return
	}
	s.serveAnalysis(w, r, req, apiV2)
}

// serveAnalysis is the one single-request analysis path behind /v1/wcet
// and /v2/analyze: prepare (validation before admission), pin the table,
// key, then serve through the cache.
func (s *Server) serveAnalysis(w http.ResponseWriter, r *http.Request, req V2Request, v apiVersion) {
	reg := s.analyzer.Registry()
	sdkReq, err := req.prepare(reg, v)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	// Resolve the table selection (a ref or ID; empty — always, on /v1 —
	// selects the serving default) to its content address once: the
	// result key carries it, so evaluation and cache key agree on the
	// exact table version even if a ref is retargeted or the default
	// promoted mid-flight.
	table := s.servingID()
	if req.Table != "" {
		if _, table, err = s.store.Resolve(req.Table); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
	}
	sdkReq.TableRef = string(table)
	s.serveCached(w, r, tableKey(requestKey(reg, v, req), table), func(ctx context.Context) (*cached, error) {
		return s.evaluateEncoded(ctx, sdkReq, v)
	})
}

// tableKey scopes a canonical request key to one table version.
func tableKey(base string, table tabstore.ID) string {
	return base + ";tab=" + string(table)
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
// /v2/analyze: pre-admission cache probe, admission control, then the
// evaluation as a one-cell campaign, which the handler's goroutine works
// itself once the engine grants it a slot. The request's deadline bounds
// the slot wait and stops the solve.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key string, compute func(context.Context) (*cached, error)) {
	// Cache hits bypass admission control entirely: they cost a map
	// lookup, and admission protects solver capacity, not the mux. The
	// probe counts only hits — if admission rejects this request below,
	// no evaluation was scheduled and the miss counter must not move.
	_, cspan := telemetry.StartSpan(r.Context(), "cache")
	c, hit := s.cache.get(key)
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
	defer release()

	out := campaign.All(ctx, s.engine, []campaign.Job[*cached]{
		func(ctx context.Context) (*cached, error) {
			return s.lookupOrCompute(ctx, key, compute)
		},
	})[0]
	switch {
	case out.Err == nil:
		writeBody(w, out.Value.body)
	case stopped(out.Err):
		// The deadline fired waiting for a slot, joining an identical
		// evaluation or solving: a server-side timeout, not a bad request.
		s.metrics.canceled.Inc()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("request timed out: %w", out.Err))
	default:
		httpError(w, http.StatusUnprocessableEntity, out.Err)
	}
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, fmt.Errorf("POST required"))
		return
	}
	batch, err := decodeDirect(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes), parseBatch)
	if err != nil {
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
	defer release()

	// Fan the batch out across the campaign engine: each request is one
	// independent cell, the handler's goroutine works cells beside the
	// engine's helpers, results come back in input order, and the
	// engine-level slot semaphore bounds total parallelism across every
	// concurrent request. The serving table is pinned once for the whole
	// batch, so all cells evaluate under one characterisation.
	table := s.servingID()
	reg := s.analyzer.Registry()
	outcomes := campaign.Batch(ctx, s.engine, batch.Requests, func(ctx context.Context, req Request) (*cached, error) {
		view := req.asV2()
		sdkReq, err := view.prepare(reg, apiV1)
		if err != nil {
			return nil, err
		}
		sdkReq.TableRef = string(table)
		return s.lookupOrCompute(ctx, tableKey(requestKey(reg, apiV1, view), table), func(ctx context.Context) (*cached, error) {
			return s.evaluateEncoded(ctx, sdkReq, apiV1)
		})
	})
	if err := ctx.Err(); err != nil {
		s.metrics.canceled.Inc()
		httpError(w, http.StatusServiceUnavailable, fmt.Errorf("batch timed out: %w", err))
		return
	}

	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	buf.Write(appendBatch(buf.AvailableBuffer(), outcomes))
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.Bytes())
}

// The layout EncodeJSON gives a BatchResponse: items two levels deep,
// their members three.
const (
	batchHead   = "{\n  \"results\": [\n"
	batchTail   = "\n  ]\n}\n"
	batchEmpty  = "{\n  \"results\": []\n}\n"
	batchIndent = "      "
)

// appendBatch appends the /v1/batch response for outcomes, byte for byte
// what EncodeJSON gives for their BatchResponse. A result's cached
// canonical body is spliced in, indented to its depth: the body is laid
// out from depth 0, and JSON strings hold no raw line break, so each line
// break in it gains the member indent. Errors are encoded as they come.
func appendBatch(b []byte, outcomes []campaign.Outcome[*cached]) []byte {
	if len(outcomes) == 0 {
		return append(b, batchEmpty...)
	}
	b = append(b, batchHead...)
	for i, o := range outcomes {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = append(b, "    {"...)
		if o.Err == nil {
			b = append(b, "\n"+batchIndent+`"response": `...)
			body := bytes.TrimSuffix(o.Value.body, []byte("\n"))
			for {
				nl := bytes.IndexByte(body, '\n')
				if nl < 0 {
					break
				}
				b = append(b, body[:nl+1]...)
				b = append(b, batchIndent...)
				body = body[nl+1:]
			}
			b = append(b, body...)
		} else if msg := o.Err.Error(); msg != "" { // omitempty
			b = append(b, "\n"+batchIndent+`"error": `...)
			b = jsonenc.AppendString(b, msg)
		} else {
			b = append(b, '}')
			continue
		}
		b = append(b, "\n    }"...)
	}
	return append(b, batchTail...)
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

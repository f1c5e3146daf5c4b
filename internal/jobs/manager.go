package jobs

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/store"
	"repro/internal/tabstore"
	"repro/internal/telemetry"
	"repro/wcet"
)

// Process-wide job telemetry on the default registry (exposed by wcetd's
// GET /metrics and the dashboard's jobs tiles).
var (
	mSubmitted = telemetry.Default().Counter("jobs_submitted_total",
		"Campaign jobs admitted.")
	mResumed = telemetry.Default().Counter("jobs_resumed_total",
		"Campaign jobs resumed from checkpoints after a restart.")
	mFinished = telemetry.Default().CounterVec("jobs_finished_total",
		"Campaign jobs reaching a terminal state.", "state")
	mCellsSolved = telemetry.Default().Counter("jobs_cells_solved_total",
		"Campaign-job cells solved (checkpoint appends).")
	mCellsRestored = telemetry.Default().Counter("jobs_cells_restored_total",
		"Campaign-job cells restored from checkpoints instead of re-solved.")
	mActive = telemetry.Default().Gauge("jobs_active",
		"Campaign jobs currently pending or running.")
)

// Config configures a Manager.
type Config struct {
	// Dir is the persistence root (conventionally next to the tabstore
	// data dir). Empty runs the manager in-memory: jobs work but nothing
	// survives a restart.
	Dir string
	// MaxActive bounds concurrently admitted (pending + running) jobs;
	// <= 0 selects 16. Admitted jobs all make progress — their cells
	// contend for the engine's background slots — so the bound caps
	// queued work, not parallelism, which the engine already bounds.
	MaxActive int
	// Engine is the shared campaign engine; job cells run on it at
	// Background priority. Nil gets a private engine (tests).
	Engine *campaign.Engine
	// Store resolves base tables and grid table refs. Required.
	Store *tabstore.Store
	// Registry resolves model names; nil selects wcet.DefaultRegistry.
	Registry *wcet.Registry
	// Logger receives job lifecycle logs; nil selects slog.Default.
	Logger *slog.Logger
}

// result is one content-addressed campaign result, shared by every done
// job whose artifact hashes to the same ID, the way artifacts/<id>.json
// is shared on disk: each cell's compact point bytes by grid index (what
// a finished job's stream frames) and, when the manager is in-memory, the
// artifact itself. Both are immutable once stored.
type result struct {
	points [][]byte
	data   []byte
}

// job is the in-memory state of one campaign job. Its event log is kept
// in compact form: cell event k is cell order[k-1], whose point bytes
// are its checkpoint record, and the terminal event follows from meta.
// A done job holds only meta, order and res.
type job struct {
	mu   sync.Mutex
	meta Meta
	// order lists the grid index of every logged cell in Seq order, sized
	// for every cell; it is append-only, so a stream reads its prefix.
	// Its length is the job's done count.
	order []int32
	// points holds each logged cell's compact point bytes by grid index,
	// carved from arena, until the job is done; it then gives way to
	// res. Failed and canceled jobs keep their own.
	points [][]byte
	arena  []byte
	res    *result
	// pts holds each solved cell's point by grid index until the
	// artifact is encoded; terminal jobs drop it.
	pts    []experiments.PointJSON
	subs   map[*Stream]struct{}
	cancel context.CancelFunc
	// ckpt appends completed cells to the checkpoint log (nil when the
	// manager is in-memory). It is opened before run starts and closed
	// when run returns.
	ckpt *store.Log
}

// newJob builds the in-memory state of a job with no cells logged;
// unfinished jobs also get room for their points.
func newJob(meta Meta) *job {
	j := &job{
		meta:   meta,
		order:  make([]int32, 0, meta.TotalCells),
		points: make([][]byte, meta.TotalCells),
	}
	if !meta.State.Terminal() {
		j.pts = make([]experiments.PointJSON, meta.TotalCells)
	}
	return j
}

// Manager owns the campaign jobs of one daemon: admission, execution at
// Background priority on the shared engine, checkpointing, restart
// resume, artifacts and progress streams. Safe for concurrent use.
type Manager struct {
	cfg    Config
	runner experiments.Runner

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu   sync.Mutex
	jobs map[string]*job
	// results holds the shared result of every done job by artifact ID.
	results map[string]*result
	// active counts the pending and running jobs: raised on admission and
	// resume, lowered at the terminal transition, so admission and the
	// jobs_active gauge never scan the retained jobs.
	active  int
	closing bool

	// artifactHook, when set, runs between a done job's artifact and its
	// terminal transition: tests open streams in that window.
	artifactHook func(id string)
}

// Open builds a manager and, when cfg.Dir is set, loads every persisted
// job from it — rebuilding progress logs from checkpoint files and
// resuming every job that was pending or running when the previous
// process died or shut down.
func Open(cfg Config) (*Manager, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("jobs: Config.Store is required")
	}
	if cfg.MaxActive <= 0 {
		cfg.MaxActive = 16
	}
	if cfg.Engine == nil {
		cfg.Engine = campaign.New(0)
	}
	if cfg.Registry == nil {
		cfg.Registry = wcet.DefaultRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		runner:  experiments.NewRunner(cfg.Engine),
		baseCtx: ctx,
		stop:    stop,
		jobs:    make(map[string]*job),
		results: make(map[string]*result),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(m.artifactsDir(), 0o755); err != nil {
			stop()
			return nil, fmt.Errorf("jobs: creating %s: %w", m.artifactsDir(), err)
		}
		if err := m.loadAll(); err != nil {
			stop()
			return nil, err
		}
	}
	return m, nil
}

func (m *Manager) jobDir(id string) string   { return filepath.Join(m.cfg.Dir, id) }
func (m *Manager) metaPath(id string) string { return filepath.Join(m.cfg.Dir, id, "job.json") }
func (m *Manager) ckptPath(id string) string { return filepath.Join(m.cfg.Dir, id, "cells.jsonl") }
func (m *Manager) artifactsDir() string      { return filepath.Join(m.cfg.Dir, "artifacts") }
func (m *Manager) artifactPath(id string) string {
	return filepath.Join(m.artifactsDir(), id+".json")
}

// loadAll scans the persistence root, rebuilds every job's in-memory
// state and resumes the unfinished ones. An unreadable job directory is
// skipped with a warning rather than failing the daemon.
func (m *Manager) loadAll() error {
	entries, err := os.ReadDir(m.cfg.Dir)
	if err != nil {
		return fmt.Errorf("jobs: reading %s: %w", m.cfg.Dir, err)
	}
	var resume []*job
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), "j-") {
			continue
		}
		id := e.Name()
		var meta Meta
		if err := readJSONFile(m.metaPath(id), &meta); err != nil {
			m.cfg.Logger.Warn("jobs: skipping unreadable job", "id", id, "err", err)
			continue
		}
		if meta.ID != id {
			m.cfg.Logger.Warn("jobs: skipping job with mismatched id", "dir", id, "meta", meta.ID)
			continue
		}
		load, err := loadCheckpoint(m.ckptPath(id), meta.TotalCells)
		if err != nil {
			m.cfg.Logger.Warn("jobs: skipping job with unreadable checkpoint", "id", id, "err", err)
			continue
		}
		if load.dropped > 0 {
			m.cfg.Logger.Warn("jobs: checkpoint tail unverifiable, truncating",
				"id", id, "goodCells", len(load.order), "goodBytes", load.goodBytes)
		}
		j := newJob(meta)
		if err := j.restore(load); err != nil {
			m.cfg.Logger.Warn("jobs: skipping job with unencodable checkpoint", "id", id, "err", err)
			continue
		}
		if meta.State == StateDone {
			m.mu.Lock()
			m.share(j, meta.Artifact, nil)
			m.mu.Unlock()
		} else if !meta.State.Terminal() {
			// Cut the unverifiable tail before appends resume.
			if j.ckpt, err = store.OpenLog(m.ckptPath(id), load.goodBytes); err != nil {
				m.cfg.Logger.Warn("jobs: cannot reopen checkpoint", "id", id, "err", err)
				continue
			}
			resume = append(resume, j)
		}
		m.jobs[id] = j
	}
	m.mu.Lock()
	m.active += len(resume)
	mActive.Set(int64(m.active))
	m.mu.Unlock()
	for _, j := range resume {
		jctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		mResumed.Inc()
		mCellsRestored.Add(int64(len(j.order)))
		m.cfg.Logger.Info("jobs: resuming",
			"id", j.meta.ID, "done", len(j.order), "total", j.meta.TotalCells)
		m.wg.Add(1)
		go m.run(jctx, j, nil)
	}
	return nil
}

// checkpoint is a job's checkpoint log read back.
type checkpoint struct {
	// points maps grid index to the checkpointed result, last write wins
	// (duplicates cannot disagree — cells are deterministic — but the
	// map also dedups a line replayed across a crashed append).
	points map[int]experiments.PointJSON
	// order lists cell indices in log order (the replayable event log).
	order []int
	// goodBytes is the offset of the end of the last verified line;
	// appends resume there.
	goodBytes int64
	// dropped counts the discarded tail (diagnostics).
	dropped int
}

// loadCheckpoint reads a job's checkpoint log: one store record per
// cell, keyed by grid index. Beyond the log's own checksum, a record
// must name a cell inside the grid and carry a payload that decodes as
// one; the first that does not ends the verified prefix, and the cells
// past it simply re-solve. A missing file is an empty log.
func loadCheckpoint(path string, totalCells int) (checkpoint, error) {
	ck := checkpoint{points: make(map[int]experiments.PointJSON)}
	var err error
	_, ck.goodBytes, ck.dropped, err = store.Read(path, func(r store.Record) bool {
		var pt experiments.PointJSON
		if r.T < 0 || r.T >= int64(totalCells) || json.Unmarshal(r.D, &pt) != nil {
			return false
		}
		if _, dup := ck.points[int(r.T)]; !dup {
			ck.order = append(ck.order, int(r.T))
		}
		ck.points[int(r.T)] = pt
		return true
	})
	return ck, err
}

// artifactID content-addresses an artifact.
func artifactID(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// readJSONFile decodes one JSON file into v.
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// restore logs the cells of a checkpoint read back, in log order, the
// way recordCell logs them live.
func (j *job) restore(ck checkpoint) error {
	for _, idx := range ck.order {
		pt := ck.points[idx]
		if _, err := j.addCell(idx, &pt); err != nil {
			return err
		}
		if j.pts != nil {
			j.pts[idx] = pt
		}
	}
	return nil
}

// addCell logs one solved cell; the caller holds j.mu or owns j. The
// cell is encoded once, here, into the job's arena: the compact point
// bytes are returned as its checkpoint record, and every stream frames
// its event around them.
func (j *job) addCell(idx int, pt *experiments.PointJSON) ([]byte, error) {
	var scratch [1024]byte
	enc, err := experiments.AppendPoint(scratch[:0], pt, false)
	if err != nil {
		return nil, err
	}
	if cap(j.arena)-len(j.arena) < len(enc) {
		// Room for the cells still to come, if they encode about as
		// long as this one.
		left := j.meta.TotalCells - len(j.order)
		j.arena = make([]byte, 0, (len(enc)+len(enc)/8)*left)
	}
	start := len(j.arena)
	j.arena = append(j.arena, enc...)
	raw := j.arena[start:len(j.arena):len(j.arena)]
	j.points[idx] = raw
	j.order = append(j.order, int32(idx))
	return raw, nil
}

// share attaches j's result, the content of artifact id (data is the
// artifact when the manager is in-memory), and drops the job's own copy
// of its points. A complete job shares the one result stored under id,
// storing its own points and a copy of data there when id is new; an
// incomplete one (its checkpoint lost lines) keeps a result of its own.
// The caller holds m.mu, and j.mu or owns j.
func (m *Manager) share(j *job, id string, data []byte) {
	res, ok := m.results[id]
	if !ok || len(j.order) != j.meta.TotalCells {
		res = &result{points: j.points, data: bytes.Clone(data)}
		if len(j.order) == j.meta.TotalCells {
			m.results[id] = res
		}
	}
	j.res = res
	j.points, j.arena = nil, nil
}

// Submit validates, persists and starts one campaign job. defaultTable
// is the base-table ref used when the spec names none (the caller's
// serving default). All validation happens here, before admission: a
// rejected spec never touches the engine.
func (m *Manager) Submit(spec Spec, defaultTable string) (Status, error) {
	grid, err := spec.Grid.Compile(m.cfg.Store, m.cfg.Registry)
	if err != nil {
		return Status{}, err
	}
	baseRef := spec.Table
	if baseRef == "" {
		baseRef = defaultTable
	}
	if baseRef == "" {
		return Status{}, fmt.Errorf("jobs: no base table: spec names none and no default is configured")
	}
	lat, baseID, err := m.cfg.Store.Resolve(baseRef)
	if err != nil {
		return Status{}, fmt.Errorf("jobs: base table: %w", err)
	}
	plan, err := grid.Plan(lat)
	if err != nil {
		return Status{}, err
	}
	id, err := newID()
	if err != nil {
		return Status{}, err
	}
	meta := Meta{
		ID:            id,
		Spec:          spec,
		BaseTable:     string(baseID),
		State:         StatePending,
		TotalCells:    plan.Size(),
		CreatedUnixMs: time.Now().UnixMilli(),
	}

	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return Status{}, ErrClosed
	}
	if m.active >= m.cfg.MaxActive {
		err := fmt.Errorf("%w (%d active, max %d)", ErrTooManyJobs, m.active, m.cfg.MaxActive)
		m.mu.Unlock()
		return Status{}, err
	}
	j := newJob(meta)
	jctx, cancel := context.WithCancel(m.baseCtx)
	j.cancel = cancel
	m.jobs[id] = j
	m.active++
	mActive.Set(int64(m.active))
	m.mu.Unlock()

	if m.cfg.Dir != "" {
		err := os.MkdirAll(m.jobDir(id), 0o755)
		if err == nil {
			j.ckpt, err = store.OpenLog(m.ckptPath(id), 0)
		}
		if err == nil {
			err = m.persistMeta(meta)
		}
		if err != nil {
			j.ckpt.Close()
			m.dropJob(id)
			cancel()
			return Status{}, fmt.Errorf("jobs: persisting job: %w", err)
		}
	}
	mSubmitted.Inc()
	m.cfg.Logger.Debug("jobs: submitted", "id", id, "cells", meta.TotalCells, "baseTable", meta.BaseTable)
	m.wg.Add(1)
	go m.run(jctx, j, plan)
	return Status{Meta: meta}, nil
}

// dropJob removes a job that failed to persist at submission.
func (m *Manager) dropJob(id string) {
	m.mu.Lock()
	delete(m.jobs, id)
	m.active--
	mActive.Set(int64(m.active))
	m.mu.Unlock()
}

// persistMeta writes a job's meta atomically.
func (m *Manager) persistMeta(meta Meta) error {
	if m.cfg.Dir == "" {
		return nil
	}
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encoding meta: %w", err)
	}
	return store.WriteFileAtomic(m.metaPath(meta.ID), append(data, '\n'))
}

// run executes a job to a terminal state (or to manager shutdown, which
// leaves it resumable). plan is non-nil on fresh submissions; resumed
// jobs re-plan from their pinned base table.
func (m *Manager) run(ctx context.Context, j *job, plan *experiments.SweepPlan) {
	defer m.wg.Done()
	defer func() {
		if err := j.ckpt.Close(); err != nil {
			m.cfg.Logger.Warn("jobs: closing checkpoint", "id", j.meta.ID, "err", err)
		}
	}()

	j.mu.Lock()
	j.meta.State = StateRunning
	meta := j.meta
	done := len(j.order)
	j.mu.Unlock()
	if err := m.persistMeta(meta); err != nil {
		m.fail(j, err)
		return
	}

	if plan == nil {
		// Resume: rebuild the plan from the pinned base table. The grid
		// re-validates against today's store; a vanished base table or
		// table ref fails the job cleanly instead of solving the wrong
		// characterisation.
		grid, err := meta.Spec.Grid.Compile(m.cfg.Store, m.cfg.Registry)
		if err != nil {
			m.fail(j, fmt.Errorf("jobs: resume: %w", err))
			return
		}
		lat, _, err := m.cfg.Store.Resolve(meta.BaseTable)
		if err != nil {
			m.fail(j, fmt.Errorf("jobs: resume: base table: %w", err))
			return
		}
		plan, err = grid.Plan(lat)
		if err != nil {
			m.fail(j, fmt.Errorf("jobs: resume: %w", err))
			return
		}
		if plan.Size() != meta.TotalCells {
			m.fail(j, fmt.Errorf("jobs: resume: plan has %d cells, checkpoint expects %d", plan.Size(), meta.TotalCells))
			return
		}
	}

	j.mu.Lock()
	remaining := make([]int, 0, meta.TotalCells-done)
	for i := 0; i < meta.TotalCells; i++ {
		if j.points[i] == nil {
			remaining = append(remaining, i)
		}
	}
	j.mu.Unlock()

	cells := make([]campaign.Job[struct{}], len(remaining))
	for i, idx := range remaining {
		idx := idx
		cells[i] = func(ctx context.Context) (struct{}, error) {
			pt, err := m.runner.RunCell(ctx, plan, idx)
			if err != nil {
				return struct{}{}, err
			}
			return struct{}{}, m.recordCell(j, idx, pt.Wire())
		}
	}
	outcomes := campaign.AllAt(ctx, m.cfg.Engine, campaign.Background, cells)

	if ctx.Err() != nil {
		m.mu.Lock()
		closing := m.closing
		m.mu.Unlock()
		if closing {
			// Shutdown, not cancellation: leave the persisted state
			// running so the next process resumes from the checkpoint.
			return
		}
		m.finish(j, StateCanceled, "canceled", "", nil)
		return
	}
	var errs []error
	for i, o := range outcomes {
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("cell %d: %w", remaining[i], o.Err))
		}
	}
	if len(errs) > 0 {
		m.fail(j, errors.Join(errs...))
		return
	}

	// Every cell is in, so nothing writes the points any more. Encode
	// the artifact in grid order into a pooled buffer and content-address
	// it; share copies the bytes only under an ID seen for the first
	// time.
	j.mu.Lock()
	complete := len(j.order) == meta.TotalCells
	pts := j.pts
	j.mu.Unlock()
	if !complete {
		m.fail(j, fmt.Errorf("jobs: internal: cells missing after a clean run"))
		return
	}
	buf := artifactBufs.Get().(*[]byte)
	data, err := experiments.AppendArtifact((*buf)[:0], pts)
	if cap(data) <= maxPooledArtifactBuf {
		*buf = data[:0]
		defer artifactBufs.Put(buf)
	}
	if err != nil {
		m.fail(j, err)
		return
	}
	id := artifactID(data)
	if m.cfg.Dir != "" {
		if err := store.WriteFileAtomic(m.artifactPath(id), data); err != nil {
			m.fail(j, err)
			return
		}
		data = nil // read back from disk
	}
	if m.artifactHook != nil {
		m.artifactHook(meta.ID)
	}
	m.finish(j, StateDone, "", id, data)
}

// artifactBufs recycles the buffers artifacts are encoded into; the
// buffer of a very large grid's artifact is left to the GC.
var artifactBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledArtifactBuf = 1 << 20

// recordCell logs one completed cell, checkpoints it and fans its event
// out to subscribers. A cell that cannot be encoded (a NaN or infinite
// ratio) fails, and with it the job.
func (m *Manager) recordCell(j *job, idx int, pt experiments.PointJSON) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.points[idx] != nil {
		return nil
	}
	raw, err := j.addCell(idx, &pt)
	if err != nil {
		return err
	}
	j.pts[idx] = pt
	if err := j.ckpt.Append(int64(idx), raw); err != nil {
		// The cell result is still held in memory; losing the append
		// only costs a re-solve after a crash.
		m.cfg.Logger.Warn("jobs: checkpoint append failed", "id", j.meta.ID, "cell", idx, "err", err)
	}
	mCellsSolved.Inc()
	j.wakeStreams()
	return nil
}

// wakeStreams tells j's open streams that an event was logged; the
// caller holds j.mu. A stream that has not yet taken an earlier wake-up
// already has one pending: it frames every event logged since.
func (j *job) wakeStreams() {
	for s := range j.subs {
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}
}

// finish moves j to a terminal state, persists it and logs the terminal
// event. A done job's artifact is content-addressed as artifact (data is
// its bytes when the manager is in-memory): j takes the shared result in
// the same critical section as its terminal state, so every stream sees
// either the running job with its own points or the done job with the
// shared ones. The active count drops under the same locks as the state
// changes, so a submission that sees the job terminal also sees its slot
// free.
func (m *Manager) finish(j *job, state State, errText, artifact string, data []byte) {
	m.mu.Lock()
	j.mu.Lock()
	if !j.meta.State.Terminal() {
		m.active--
		mActive.Set(int64(m.active))
	}
	j.meta.State = state
	j.meta.Error = errText
	j.meta.Artifact = artifact
	j.pts, j.arena = nil, nil
	if state == StateDone {
		m.share(j, artifact, data)
	}
	meta := j.meta
	j.wakeStreams()
	j.subs = nil
	// Release the job's context from the manager's, which would hold it
	// for the daemon's lifetime.
	cancel := j.cancel
	j.cancel = nil
	j.mu.Unlock()
	m.mu.Unlock()
	if cancel != nil {
		cancel()
	}

	if err := m.persistMeta(meta); err != nil {
		m.cfg.Logger.Error("jobs: persisting terminal state failed", "id", meta.ID, "err", err)
	}
	mFinished.With(string(state)).Inc()
	m.cfg.Logger.Info("jobs: finished", "id", meta.ID, "state", string(state), "artifact", artifact, "err", errText)
}

// fail moves j to failed.
func (m *Manager) fail(j *job, err error) {
	const maxErrText = 4096
	text := err.Error()
	if len(text) > maxErrText {
		text = text[:maxErrText] + " …"
	}
	m.finish(j, StateFailed, text, "", nil)
}

// Get returns a job's status.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Status{Meta: j.meta, DoneCells: len(j.order)}, nil
}

// List returns every job's status, newest first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	js := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		js = append(js, j)
	}
	m.mu.Unlock()
	out := make([]Status, 0, len(js))
	for _, j := range js {
		j.mu.Lock()
		out = append(out, Status{Meta: j.meta, DoneCells: len(j.order)})
		j.mu.Unlock()
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].CreatedUnixMs != out[b].CreatedUnixMs {
			return out[a].CreatedUnixMs > out[b].CreatedUnixMs
		}
		return out[a].ID > out[b].ID
	})
	return out
}

// Cancel stops a job through the engine's context path. Cancelling a
// terminal job is a no-op; either way the current status is returned.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Status{}, ErrNotFound
	}
	j.mu.Lock()
	terminal := j.meta.State.Terminal()
	cancel := j.cancel
	st := Status{Meta: j.meta, DoneCells: len(j.order)}
	j.mu.Unlock()
	if !terminal && cancel != nil {
		cancel()
	}
	return st, nil
}

// Artifact returns a job's verified results file. The bytes are read
// back from disk and re-hashed against the artifact's content address on
// every call: a torn write or tampered file yields ErrArtifactCorrupt,
// never a half-written artifact.
func (m *Manager) Artifact(id string) ([]byte, string, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, "", ErrNotFound
	}
	j.mu.Lock()
	artID := j.meta.Artifact
	var data []byte
	if j.res != nil {
		data = j.res.data
	}
	j.mu.Unlock()
	if artID == "" {
		return nil, "", ErrNoArtifact
	}
	if m.cfg.Dir != "" {
		var err error
		data, err = os.ReadFile(m.artifactPath(artID))
		if err != nil {
			if os.IsNotExist(err) {
				return nil, "", fmt.Errorf("%w: %s missing on disk", ErrArtifactCorrupt, artID)
			}
			return nil, "", fmt.Errorf("jobs: reading artifact: %w", err)
		}
	}
	if artifactID(data) != artID {
		return nil, "", ErrArtifactCorrupt
	}
	return data, artID, nil
}

// Stream is one open progress stream of a job: a position in its event
// log. Events are framed from the job's compact form when a stream
// reaches them, so every stream of a job, live or replayed, before or
// after a restart, writes the same bytes. One goroutine reads a Stream.
type Stream struct {
	j *job
	// next is the Seq of the next event to frame.
	next int
	// wake receives when the job logs an event; nil when the job was
	// terminal at Subscribe.
	wake chan struct{}
}

// Subscribe opens a progress stream positioned after event afterSeq: the
// first AppendFrames frames every logged event with Seq > afterSeq.
// afterSeq 0 replays from the start — exactly the SSE Last-Event-ID
// contract. Close releases the stream.
func (m *Manager) Subscribe(id string, afterSeq int) (*Stream, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	s := &Stream{j: j, next: max(afterSeq, 0) + 1}
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.meta.State.Terminal() {
		s.wake = make(chan struct{}, 1)
		if j.subs == nil {
			j.subs = make(map[*Stream]struct{})
		}
		j.subs[s] = struct{}{}
	}
	return s, nil
}

// Wake receives when the job has logged an event the stream may not
// have framed yet. A stream that has reached the end never wakes.
func (s *Stream) Wake() <-chan struct{} { return s.wake }

// AppendFrames appends every event logged past the stream's position to
// b, in Seq order, and moves the stream past them. Each event goes out
// as head(b, seq, type), its JSON — byte for byte json.Marshal of its
// Event — and tail: cell events are framed around the cells' point
// bytes, nothing is encoded again. It reports whether the stream has
// reached the end, the job's terminal event.
func (s *Stream) AppendFrames(b []byte, head func(b []byte, seq int, typ string) []byte, tail string) ([]byte, bool) {
	j := s.j
	j.mu.Lock()
	// Cells already logged never change, and later ones go past the
	// prefix taken here, so the frames are built outside the lock.
	order, points, meta := j.order, j.points, j.meta
	if j.res != nil {
		points = j.res.points
	}
	j.mu.Unlock()
	for ; s.next <= len(order); s.next++ {
		b = head(b, s.next, "cell")
		idx := int(order[s.next-1])
		b = appendCellEvent(b, s.next, idx, meta.TotalCells, points[idx])
		b = append(b, tail...)
	}
	if !meta.State.Terminal() {
		return b, false
	}
	if s.next == len(order)+1 {
		b = head(b, s.next, "state")
		b = appendStateEvent(b, s.next, len(order), &meta)
		b = append(b, tail...)
		s.next++
	}
	return b, true
}

// Close releases the stream.
func (s *Stream) Close() {
	if s.wake == nil {
		return
	}
	s.j.mu.Lock()
	delete(s.j.subs, s)
	s.j.mu.Unlock()
}

// Close stops accepting submissions, cancels running jobs and waits for
// them to quiesce (bounded by ctx). Persisted state stays resumable: a
// job interrupted here restarts from its checkpoint on the next Open.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	m.closing = true
	m.mu.Unlock()
	m.stop()
	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: close: %w", ctx.Err())
	}
}

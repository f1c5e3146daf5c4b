package jobs

import (
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

// subscriber is one live progress stream.
type subscriber struct {
	ch     chan Encoded
	closed bool
}

// closedStream is the live channel handed to subscribers of a terminal
// job: closed, so they drain the replay and stop.
var closedStream = func() chan Encoded {
	ch := make(chan Encoded)
	close(ch)
	return ch
}()

// job is the in-memory state of one campaign job.
type job struct {
	mu   sync.Mutex
	meta Meta
	// points holds each solved cell's point by grid index until the
	// artifact is encoded; terminal jobs drop it. done counts the solved
	// cells.
	points map[int]experiments.PointJSON
	done   int
	// log is the event log, sized for every cell and the terminal event;
	// it is append-only, so Subscribe hands out its prefix.
	log    []Encoded
	subs   map[*subscriber]struct{}
	cancel context.CancelFunc
	// ckpt appends completed cells to the checkpoint log (nil when the
	// manager is in-memory). It is opened before run starts and closed
	// when run returns.
	ckpt *store.Log
	// artifact holds the encoded results when the manager is in-memory
	// (no Dir to read them back from).
	artifact []byte
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
	// active counts the pending and running jobs: raised on admission and
	// resume, lowered at the terminal transition, so admission and the
	// jobs_active gauge never scan the retained jobs.
	active  int
	closing bool
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
		j := &job{
			meta: meta,
			log:  make([]Encoded, 0, meta.TotalCells+1),
			subs: make(map[*subscriber]struct{}),
		}
		if !meta.State.Terminal() {
			j.points = load.points
		}
		if err := j.restore(load); err != nil {
			m.cfg.Logger.Warn("jobs: skipping job with unencodable checkpoint", "id", id, "err", err)
			continue
		}
		if meta.State.Terminal() {
			j.log = append(j.log, encodeState(len(j.log)+1, meta, j.done))
		} else {
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
		mCellsRestored.Add(int64(j.done))
		m.cfg.Logger.Info("jobs: resuming",
			"id", j.meta.ID, "done", j.done, "total", j.meta.TotalCells)
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

// restore logs the cells of a checkpoint read back, in log order.
func (j *job) restore(ck checkpoint) error {
	for _, idx := range ck.order {
		pt := ck.points[idx]
		if _, _, err := j.addCell(idx, &pt); err != nil {
			return err
		}
	}
	return nil
}

// addCell logs one solved cell's event; the caller holds j.mu or owns
// j. The cell is encoded once, here: the point bytes inside its event
// are returned as the checkpoint record.
func (j *job) addCell(idx int, pt *experiments.PointJSON) (Encoded, []byte, error) {
	ev, raw, err := encodeCell(len(j.log)+1, idx, j.done+1, j.meta.TotalCells, pt)
	if err != nil {
		return Encoded{}, nil, err
	}
	j.done++
	j.log = append(j.log, ev)
	return ev, raw, nil
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
	j := &job{
		meta:   meta,
		points: make(map[int]experiments.PointJSON, meta.TotalCells),
		log:    make([]Encoded, 0, meta.TotalCells+1),
		subs:   make(map[*subscriber]struct{}),
	}
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
	done := j.done
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
		if _, ok := j.points[i]; !ok {
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
		m.finish(j, StateCanceled, "canceled", "")
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

	// Assemble the artifact in grid order and content-address it.
	j.mu.Lock()
	points := make([]experiments.PointJSON, meta.TotalCells)
	complete := true
	for i := 0; i < meta.TotalCells; i++ {
		pt, ok := j.points[i]
		if !ok {
			complete = false
			break
		}
		points[i] = pt
	}
	j.mu.Unlock()
	if !complete {
		m.fail(j, fmt.Errorf("jobs: internal: cells missing after a clean run"))
		return
	}
	data, err := experiments.EncodeArtifact(points)
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
	} else {
		j.mu.Lock()
		j.artifact = data
		j.mu.Unlock()
	}
	m.finish(j, StateDone, "", id)
}

// recordCell logs one completed cell, checkpoints it and fans its event
// out to subscribers. A cell that cannot be encoded (a NaN or infinite
// ratio) fails, and with it the job.
func (m *Manager) recordCell(j *job, idx int, pt experiments.PointJSON) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, dup := j.points[idx]; dup {
		return nil
	}
	ev, raw, err := j.addCell(idx, &pt)
	if err != nil {
		return err
	}
	j.points[idx] = pt
	if err := j.ckpt.Append(int64(idx), raw); err != nil {
		// The cell result is still held in memory; losing the append
		// only costs a re-solve after a crash.
		m.cfg.Logger.Warn("jobs: checkpoint append failed", "id", j.meta.ID, "cell", idx, "err", err)
	}
	mCellsSolved.Inc()
	m.fanout(j, ev, false)
	return nil
}

// fanout delivers ev to j's subscribers; the caller holds j.mu. A
// subscriber that cannot keep up is closed — its client re-syncs with
// Last-Event-ID. terminal additionally closes every stream.
func (m *Manager) fanout(j *job, ev Encoded, terminal bool) {
	for s := range j.subs {
		if s.closed {
			continue
		}
		select {
		case s.ch <- ev:
		default:
			s.closed = true
			close(s.ch)
			delete(j.subs, s)
			continue
		}
		if terminal {
			s.closed = true
			close(s.ch)
			delete(j.subs, s)
		}
	}
}

// finish moves j to a terminal state, persists it and emits the terminal
// event. The active count drops under the same locks as the state
// changes, so a submission that sees the job terminal also sees its slot
// free.
func (m *Manager) finish(j *job, state State, errText, artifact string) {
	m.mu.Lock()
	j.mu.Lock()
	if !j.meta.State.Terminal() {
		m.active--
		mActive.Set(int64(m.active))
	}
	j.meta.State = state
	j.meta.Error = errText
	j.meta.Artifact = artifact
	j.points = nil
	meta := j.meta
	ev := encodeState(len(j.log)+1, meta, j.done)
	j.log = append(j.log, ev)
	m.fanout(j, ev, true)
	j.mu.Unlock()
	m.mu.Unlock()

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
	m.finish(j, StateFailed, text, "")
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
	return Status{Meta: j.meta, DoneCells: j.done}, nil
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
		out = append(out, Status{Meta: j.meta, DoneCells: j.done})
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
	st := Status{Meta: j.meta, DoneCells: j.done}
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
	inMem := j.artifact
	j.mu.Unlock()
	if artID == "" {
		return nil, "", ErrNoArtifact
	}
	data := inMem
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

// Subscribe opens a progress stream: the replay of every logged event
// with Seq > afterSeq, then a live channel. The channel closes after the
// terminal event (or on overflow, or when cancel is called). afterSeq 0
// replays from the start — exactly the SSE Last-Event-ID contract. The
// replay shares the job's log, which is append-only: callers must not
// modify it.
func (m *Manager) Subscribe(id string, afterSeq int) ([]Encoded, <-chan Encoded, func(), error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if afterSeq < 0 {
		afterSeq = 0
	}
	var replay []Encoded
	if n := len(j.log); afterSeq < n {
		replay = j.log[afterSeq:n:n]
	}
	if j.meta.State.Terminal() {
		// The replay already ends with the terminal event; hand back a
		// closed channel so the caller drains and stops.
		return replay, closedStream, func() {}, nil
	}
	s := &subscriber{ch: make(chan Encoded, 256)}
	j.subs[s] = struct{}{}
	cancel := func() {
		j.mu.Lock()
		defer j.mu.Unlock()
		if !s.closed {
			s.closed = true
			close(s.ch)
		}
		delete(j.subs, s)
	}
	return replay, s.ch, cancel, nil
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

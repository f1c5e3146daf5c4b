// Package jobs is the server-side campaign-job subsystem: bounded
// asynchronous grid sweeps with checkpointed persistence and streaming
// progress. A job is one experiments.Grid submitted over the wire; its
// cells drain through the shared campaign engine at Background priority,
// so bulk campaigns soak idle solver capacity without starving the
// interactive serving path.
//
// Durability contract, built on internal/store: every completed cell is
// appended to a per-job checkpoint log (one checksummed line per cell,
// keyed by grid index), and job state transitions and artifacts are
// persisted with store.WriteFileAtomic. A killed or gracefully shut-down
// daemon resumes every non-terminal job on restart from its last good
// checkpoint line — a torn or tampered tail is truncated and those cells
// re-solved, which is safe because cells are deterministic in their
// inputs. The finished artifact is a content-addressed JSON file; its
// name is the SHA-256 of its bytes, verified on every read, so a
// half-written or tampered artifact is never served. Because the
// artifact wire form excludes run-variant solver diagnostics, a resumed
// job's artifact is byte-identical to an uninterrupted run's.
//
// Each cell is encoded once, when it is recorded (or restored from its
// checkpoint): its compact point bytes are the checkpoint record, and a
// job's event log is just the order its cells came in, so a stream frames
// each cell event around those bytes and re-encodes nothing. The artifact
// is encoded once, when the last cell is in. A done job then keeps only
// its Meta, its cell order and a pointer to one content-addressed result
// (the point bytes by grid index and, without a Dir, the artifact),
// which every done job with the same artifact ID shares, as they share
// artifacts/<id>.json on disk. The live finish and a restart's reload
// build that same form, so a finished job's stream is the same bytes from
// either. Failed and canceled jobs have no artifact and keep their own
// points.
package jobs

import (
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/jsonenc"
)

// State is a job's lifecycle phase.
type State string

const (
	// StatePending: admitted, not yet running.
	StatePending State = "pending"
	// StateRunning: cells are draining through the engine.
	StateRunning State = "running"
	// StateDone: every cell solved, artifact written.
	StateDone State = "done"
	// StateFailed: a cell or the persistence layer failed.
	StateFailed State = "failed"
	// StateCanceled: stopped by DELETE before completion.
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Spec is the wire form of a job submission.
type Spec struct {
	// Grid is the sweep to run.
	Grid experiments.GridSpec `json:"grid"`
	// Table optionally selects the base latency table (a ref or content
	// address in the store); empty selects the serving default at
	// submission time. Either way the job pins the resolved content
	// address, so a later promote never changes a running job's inputs.
	Table string `json:"table,omitempty"`
}

// Meta is the persisted description of a job — everything needed to
// resume it except the checkpoint log.
type Meta struct {
	ID string `json:"id"`
	// Spec is the submission, verbatim.
	Spec Spec `json:"spec"`
	// BaseTable is the content address of the base latency table the job
	// was pinned to at submission.
	BaseTable string `json:"baseTable"`
	// State is the last persisted lifecycle phase.
	State State `json:"state"`
	// TotalCells is the planned grid size.
	TotalCells int `json:"totalCells"`
	// Error carries the failure cause when State is failed.
	Error string `json:"error,omitempty"`
	// Artifact is the content address of the results file when State is
	// done.
	Artifact string `json:"artifact,omitempty"`
	// CreatedUnixMs timestamps the submission (informational only; no
	// result byte depends on it).
	CreatedUnixMs int64 `json:"createdUnixMs"`
}

// Status is a point-in-time snapshot of a job served to clients.
type Status struct {
	Meta
	// DoneCells counts checkpointed cells.
	DoneCells int `json:"doneCells"`
}

// Event is one entry of a job's progress stream, in the shape its JSON
// takes on the wire. Cell events are numbered 1..N in completion order
// (their Seq doubles as the SSE event ID, so Last-Event-ID resume replays
// exactly the missed suffix); a terminal state event follows with the
// next Seq. The job log holds events in compact form and streams write
// their JSON directly (Stream.AppendFrames); clients decode them into
// Event.
type Event struct {
	Seq int `json:"seq"`
	// Type is "cell" or "state".
	Type string `json:"type"`
	// Index is the completed cell's grid index (cell events).
	Index int `json:"index,omitempty"`
	// Done and Total report overall progress at this event.
	Done  int `json:"done"`
	Total int `json:"total"`
	// Point is the completed cell's result (cell events).
	Point *experiments.PointJSON `json:"point,omitempty"`
	// State, Error and Artifact describe the terminal transition (state
	// events).
	State    State  `json:"state,omitempty"`
	Error    string `json:"error,omitempty"`
	Artifact string `json:"artifact,omitempty"`
}

// appendCellEvent appends the JSON of the cell event with sequence
// number seq — byte for byte json.Marshal of its Event — around pt, the
// cell's compact point bytes. A cell event's Done equals its Seq: cells
// are logged one per event, before any other event.
func appendCellEvent(b []byte, seq, idx, total int, pt []byte) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `,"type":"cell"`...)
	if idx != 0 { // omitempty
		b = append(b, `,"index":`...)
		b = strconv.AppendInt(b, int64(idx), 10)
	}
	b = append(b, `,"done":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(total), 10)
	b = append(b, `,"point":`...)
	b = append(b, pt...)
	return append(b, '}')
}

// appendStateEvent appends the JSON of a terminal state event, byte for
// byte json.Marshal of its Event.
func appendStateEvent(b []byte, seq, done int, meta *Meta) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(seq), 10)
	b = append(b, `,"type":"state","done":`...)
	b = strconv.AppendInt(b, int64(done), 10)
	b = append(b, `,"total":`...)
	b = strconv.AppendInt(b, int64(meta.TotalCells), 10)
	b = append(b, `,"state":`...)
	b = jsonenc.AppendString(b, string(meta.State))
	if meta.Error != "" {
		b = append(b, `,"error":`...)
		b = jsonenc.AppendString(b, meta.Error)
	}
	if meta.Artifact != "" {
		b = append(b, `,"artifact":`...)
		b = jsonenc.AppendString(b, meta.Artifact)
	}
	return append(b, '}')
}

// Typed submission and access errors.
var (
	// ErrTooManyJobs: the manager is at its active-job bound.
	ErrTooManyJobs = errors.New("jobs: too many active jobs")
	// ErrNotFound: no job with that ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNoArtifact: the job has not produced an artifact (yet).
	ErrNoArtifact = errors.New("jobs: no artifact")
	// ErrArtifactCorrupt: the artifact file does not hash to its content
	// address — a torn write or tampering; it will not be served.
	ErrArtifactCorrupt = errors.New("jobs: artifact does not match its content address")
	// ErrClosed: the manager is shutting down.
	ErrClosed = errors.New("jobs: manager closed")
)

// newID mints a job identifier. IDs are random, not content-addressed:
// two submissions of the same spec are distinct jobs.
func newID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: minting id: %w", err)
	}
	return "j-" + hex.EncodeToString(b[:]), nil
}

// Package store is wcetd's one durability layer. Everything the daemon
// persists goes through one of its two primitives:
//
//   - a checksummed append-only line log: Read verifies a log file line
//     by line and stops at the first bad line, Log appends to one file
//     after cutting it back to its verified prefix, and Ring spreads a
//     bounded log over numbered segment files, reclaiming the oldest.
//     Campaign-job checkpoints are a single Log; the metrics history and
//     the stored traces are Rings.
//   - WriteFileAtomic: write a whole file via a synced temp file and a
//     rename, so readers see the old content or the new, never a prefix.
//     Latency tables, refs, job metadata and job artifacts use it.
//
// Every log line has one format,
//
//	{"t":<int64>,"d":<raw JSON>,"sum":"<hex SHA-256 of "<t>:<d>">"}
//
// where t is a caller-chosen key (a timestamp, a grid index) and d the
// payload. The checksum makes "did this line land intact?" a local
// decision: a torn append, a truncated tail or a flipped byte fails
// verification, the reader keeps the prefix before it, and the appender
// cuts the file back to that prefix before writing again. The reader also
// accepts the legacy checkpoint spelling {"index":…,"point":…,"sum":…},
// whose checksum input is the same "<index>:<point>", so job directories
// written before this package existed load and resume unchanged.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// maxLine bounds one log line, newline included. A metrics snapshot or a
// span tree is tens of kilobytes, so a few megabytes of slack is
// generous; a longer line reads as unverifiable.
const maxLine = 4 << 20

// Record is one verified log line.
type Record struct {
	T int64
	D json.RawMessage
}

// line is the on-disk form of a record. Index and Point carry the legacy
// checkpoint spelling; a line without "d" is read through them.
type line struct {
	T     int64           `json:"t"`
	D     json.RawMessage `json:"d"`
	Index int64           `json:"index"`
	Point json.RawMessage `json:"point"`
	Sum   string          `json:"sum"`
}

// sum checksums a record: hex SHA-256 over "<t>:<d>".
func sum(t int64, d []byte) string {
	h := sha256.New()
	h.Write([]byte(strconv.FormatInt(t, 10)))
	h.Write([]byte{':'})
	h.Write(d)
	return hex.EncodeToString(h.Sum(nil))
}

// encode renders one record as a newline-terminated line. The payload is
// compacted first so the checksum covers exactly the bytes on disk.
func encode(t int64, d []byte) ([]byte, error) {
	var b bytes.Buffer
	b.WriteString(`{"t":` + strconv.FormatInt(t, 10) + `,"d":`)
	start := b.Len()
	if err := json.Compact(&b, d); err != nil {
		return nil, fmt.Errorf("store: record payload: %w", err)
	}
	b.WriteString(`,"sum":"` + sum(t, b.Bytes()[start:]) + "\"}\n")
	if b.Len() > maxLine {
		return nil, fmt.Errorf("store: record of %d bytes exceeds the %d-byte line cap", b.Len(), maxLine)
	}
	return b.Bytes(), nil
}

// decode parses and verifies one line (without its newline).
func decode(b []byte) (Record, bool) {
	var l line
	if json.Unmarshal(b, &l) != nil {
		return Record{}, false
	}
	rec := Record{T: l.T, D: l.D}
	if l.D == nil {
		rec = Record{T: l.Index, D: l.Point}
	}
	return rec, l.Sum == sum(rec.T, rec.D)
}

// Read reads the log at path, verifying every line, and stops at the
// first line that is overlong, malformed, fails its checksum, lacks its
// newline (a torn append) or is refused by accept (nil accepts all). It
// returns the records before that line, good, the byte offset just past
// the last of them, and dropped, the number of unverifiable lines or
// fragments it stopped at (0 or 1). A missing file is an empty log.
func Read(path string, accept func(Record) bool) (recs []Record, good int64, dropped int, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("store: opening %s: %w", path, err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 64*1024)
	for {
		raw, rerr := r.ReadBytes('\n')
		if rerr != nil {
			// io.EOF with no partial data is a clean end; a final
			// unterminated fragment or a read error is a bad tail.
			if len(raw) > 0 || rerr != io.EOF {
				dropped++
			}
			return recs, good, dropped, nil
		}
		if len(raw) > maxLine {
			return recs, good, dropped + 1, nil
		}
		rec, ok := decode(raw[:len(raw)-1])
		if !ok || (accept != nil && !accept(rec)) {
			return recs, good, dropped + 1, nil
		}
		recs = append(recs, rec)
		good += int64(len(raw))
	}
}

// Log appends records to one log file. A nil *Log drops appends, which
// is how in-memory callers run. Log is not synchronized; callers hold
// their own lock across Append and Close.
type Log struct {
	f *os.File
}

// OpenLog opens path for appending, creating it if needed, after cutting
// it back to good bytes — the offset Read returned — so the next record
// lands right after the last verified one.
func OpenLog(path string, good int64) (*Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() > good {
		err = f.Truncate(good)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: truncating %s: %w", path, err)
	}
	return &Log{f: f}, nil
}

// Append writes one record. It does not sync: a crash can lose the
// newest records but never the verified prefix, and every caller can
// lose them (a cell re-solves, a sample or trace is gone).
func (l *Log) Append(t int64, d []byte) error {
	if l == nil {
		return nil
	}
	b, err := encode(t, d)
	if err != nil {
		return err
	}
	if _, err := l.f.Write(b); err != nil {
		return fmt.Errorf("store: appending to %s: %w", l.f.Name(), err)
	}
	return nil
}

// Close syncs and closes the file.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Ring is a bounded log over numbered segment files
// <dir>/<prefix>-<seq>.jsonl. Records append to the newest segment; when
// it holds maxLines the ring syncs it, starts the next one and deletes
// the oldest beyond maxSegs, so reclamation is one file removal. A nil or
// zero Ring drops appends (memory-only mode). Ring is not synchronized;
// callers hold their own lock across Append and Close.
type Ring struct {
	dir      string
	prefix   string
	maxLines int
	maxSegs  int

	active *Log
	lines  int      // records in the active segment
	seq    int      // sequence number of the active segment
	segs   []string // segment paths, oldest first, active included
}

// OpenRing opens (creating if needed) the ring in dir and returns every
// verifiable record, oldest first, with the count of unverifiable lines
// it skipped. Each segment is read up to its first bad line; the newest
// is cut back there so appends resume on a verified prefix.
func OpenRing(dir, prefix string, maxLines, maxSegs int) (r *Ring, recs []Record, dropped int, err error) {
	r = &Ring{dir: dir, prefix: prefix, maxLines: max(maxLines, 1), maxSegs: max(maxSegs, 2)}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, 0, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	names, err := filepath.Glob(filepath.Join(dir, prefix+"-*.jsonl"))
	if err != nil {
		return nil, nil, 0, fmt.Errorf("store: listing segments: %w", err)
	}
	sort.Strings(names)
	for i, name := range names {
		seg, good, drop, err := Read(name, nil)
		if err != nil {
			return nil, nil, 0, err
		}
		recs = append(recs, seg...)
		dropped += drop
		if i == len(names)-1 {
			if r.active, err = OpenLog(name, good); err != nil {
				return nil, nil, 0, err
			}
			r.lines = len(seg)
			r.seq, _ = strconv.Atoi(strings.TrimPrefix(strings.TrimSuffix(filepath.Base(name), ".jsonl"), prefix+"-"))
		}
		r.segs = append(r.segs, name)
	}
	return r, recs, dropped, nil
}

// Append writes one record, rotating to a fresh segment first when the
// active one is full.
func (r *Ring) Append(t int64, d []byte) error {
	if r == nil || r.dir == "" {
		return nil
	}
	if r.active == nil || r.lines >= r.maxLines {
		if err := r.rotate(); err != nil {
			return err
		}
	}
	if err := r.active.Append(t, d); err != nil {
		return err
	}
	r.lines++
	return nil
}

// rotate syncs and closes the active segment, opens the next one, and
// deletes the oldest segments beyond the retention bound.
func (r *Ring) rotate() error {
	// A failed sync here leaves the full segment as durable as Append
	// leaves any line: the reader re-verifies it on the next open.
	_ = r.active.Close()
	r.active = nil
	r.seq++
	path := filepath.Join(r.dir, fmt.Sprintf("%s-%08d.jsonl", r.prefix, r.seq))
	l, err := OpenLog(path, 0)
	if err != nil {
		return err
	}
	r.active, r.lines = l, 0
	r.segs = append(r.segs, path)
	for len(r.segs) > r.maxSegs {
		_ = os.Remove(r.segs[0])
		r.segs = r.segs[1:]
	}
	return nil
}

// Close syncs and closes the active segment; as in rotate, a failed
// sync costs at most the unsynced tail.
func (r *Ring) Close() {
	if r == nil {
		return
	}
	_ = r.active.Close()
	r.active = nil
}

// WriteFileAtomic replaces path with data: it writes a temp file in the
// same directory, syncs and closes it, then renames it over path, so a
// reader or a crash sees the old content or the new, never a prefix. The
// temp file is removed on every error path.
func WriteFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: creating temp file for %s: %w", path, err)
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %s: %w", path, err)
	}
	return nil
}

package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// writeLog writes records with keys 0..n-1 and payload fn(i) to a fresh
// log at path.
func writeLog(t *testing.T, path string, n int, fn func(int) string) {
	t.Helper()
	l, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := l.Append(int64(i), []byte(fn(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestRingRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, recs, dropped, err := OpenRing(dir, "seg", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 || dropped != 0 {
		t.Fatalf("fresh ring: recs=%d dropped=%d", len(recs), dropped)
	}
	for i := 0; i < 6; i++ {
		if err := r.Append(int64(i), []byte(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()

	_, recs, dropped, err = OpenRing(dir, "seg", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(recs) != 6 {
		t.Fatalf("len(recs) = %d, want 6", len(recs))
	}
	for i, rec := range recs {
		if rec.T != int64(i) {
			t.Fatalf("rec[%d].T = %d", i, rec.T)
		}
	}
}

func TestRingTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	r, _, _, err := OpenRing(dir, "seg", 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Append(int64(i), []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()

	// Simulate a torn append: a partial line with no newline.
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprint(f, `{"t":99,"d":{"v":`)
	f.Close()
	before, _ := os.Stat(seg)

	r2, recs, dropped, err := OpenRing(dir, "seg", 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("len(recs) = %d, want 3 (torn tail dropped)", len(recs))
	}
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
	after, _ := os.Stat(seg)
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// Appends resume cleanly on the truncated file.
	if err := r2.Append(100, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	r2.Close()
	_, recs, _, err = OpenRing(dir, "seg", 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].T != 100 {
		t.Fatalf("after resume: %d recs, last T %d", len(recs), recs[len(recs)-1].T)
	}
}

func TestRingCorruptMiddleStopsSegment(t *testing.T) {
	dir := t.TempDir()
	r, _, _, err := OpenRing(dir, "seg", 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := r.Append(int64(i), []byte(`{"v":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()

	// Flip a byte inside the second line's checksum region.
	seg := filepath.Join(dir, "seg-00000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, recs, dropped, err := OpenRing(dir, "seg", 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) >= 3 {
		t.Fatalf("corrupt line not dropped: %d recs", len(recs))
	}
	if dropped == 0 {
		t.Fatal("dropped = 0, want > 0")
	}
}

func TestRingReclaims(t *testing.T) {
	dir := t.TempDir()
	r, _, _, err := OpenRing(dir, "seg", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.Append(int64(i), []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	r.Close()
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(names) > 2 {
		t.Fatalf("ring kept %d segments, want <= 2", len(names))
	}
	_, recs, _, err := OpenRing(dir, "seg", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Only the newest records survive, and the newest of all is present.
	if len(recs) == 0 || recs[len(recs)-1].T != 9 {
		t.Fatalf("recs = %+v", recs)
	}
}

func TestNilAndMemoryOnly(t *testing.T) {
	var r *Ring
	if err := r.Append(1, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	r.Close()
	mem := &Ring{}
	if err := mem.Append(1, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	mem.Close()
	var l *Log
	if err := l.Append(1, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// cellPayload is a checkpointed grid cell's wire form.
const cellPayload = `{"scenario":1,"level":"H-Load","isolationCycles":42}`

// TestReadTornTail: a half-written second line is dropped, and good
// ends exactly after the first.
func TestReadTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cells.jsonl")
	l0, err := encode(0, []byte(cellPayload))
	if err != nil {
		t.Fatal(err)
	}
	l1, err := encode(1, []byte(cellPayload))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(append([]byte{}, l0...), l1[:len(l1)/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, good, dropped, err := Read(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || dropped == 0 || good != int64(len(l0)) {
		t.Fatalf("torn tail read: %d recs, good %d, dropped %d", len(recs), good, dropped)
	}
}

func TestReadMissingFile(t *testing.T) {
	recs, good, dropped, err := Read(filepath.Join(t.TempDir(), "nope.jsonl"), nil)
	if err != nil || len(recs) != 0 || good != 0 || dropped != 0 {
		t.Fatalf("missing file read: %d recs, good %d, dropped %d, %v", len(recs), good, dropped, err)
	}
}

// TestReadLegacySpelling: checkpoint lines written as
// {"index","point","sum"} read back as records, and their checksum is
// still checked.
func TestReadLegacySpelling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	legacy := fmt.Sprintf(`{"index":3,"point":%s,"sum":"%s"}`+"\n", cellPayload, sum(3, []byte(cellPayload)))
	bad := fmt.Sprintf(`{"index":4,"point":%s,"sum":"%s"}`+"\n", cellPayload, sum(3, []byte(cellPayload)))
	if err := os.WriteFile(path, []byte(legacy+bad), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, good, dropped, err := Read(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].T != 3 || string(recs[0].D) != cellPayload {
		t.Fatalf("legacy read: %+v", recs)
	}
	if good != int64(len(legacy)) || dropped != 1 {
		t.Fatalf("legacy read: good %d, dropped %d", good, dropped)
	}
}

// TestReadAcceptStops: a record the caller refuses ends the prefix just
// like a bad checksum.
func TestReadAcceptStops(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	writeLog(t, path, 3, func(int) string { return `{}` })
	recs, good, dropped, err := Read(path, func(r Record) bool { return r.T != 1 })
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := os.ReadFile(path)
	if len(recs) != 1 || dropped != 1 || good != int64(bytes.IndexByte(raw, '\n')+1) {
		t.Fatalf("accept read: %d recs, good %d, dropped %d", len(recs), good, dropped)
	}
}

// TestAppendRejectsOverlongRecord: the writer refuses a line the reader
// would refuse, rather than poisoning every record after it.
func TestAppendRejectsOverlongRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := OpenLog(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	huge := append(append([]byte(`"`), bytes.Repeat([]byte("x"), maxLine)...), '"')
	if err := l.Append(1, huge); err == nil {
		t.Fatal("overlong record appended")
	}
	if err := l.Append(2, []byte(`{"a": [1, 2]}`)); err != nil {
		t.Fatal(err)
	}
	recs, _, dropped, err := Read(path, nil)
	if err != nil || len(recs) != 1 || dropped != 0 || string(recs[0].D) != `{"a":[1,2]}` {
		t.Fatalf("after refused append: %+v, dropped %d, %v", recs, dropped, err)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	for _, content := range []string{"first\n", "second\n"} {
		if err := WriteFileAtomic(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(path); string(got) != content {
			t.Fatalf("content = %q, want %q", got, content)
		}
	}
	// A rename onto a non-empty directory fails; the temp file must not
	// be left behind.
	if err := os.MkdirAll(filepath.Join(dir, "occupied", "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, "occupied"), []byte("x")); err == nil {
		t.Fatal("rename over a non-empty directory succeeded")
	}
	if names, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(names) != 0 {
		t.Fatalf("temp files left behind: %v", names)
	}
}

package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLogRead damages a valid five-record log — arbitrary bytes appended
// at the end, or spliced in at offset at — and checks the reader's
// contract on whatever results: it never panics; it returns a prefix of
// the records written, and at least every record whose line the damage
// left untouched; good is within the file and ends just after a newline;
// and truncating to good, appending one record and reading again yields
// that prefix plus the new record.
func FuzzLogRead(f *testing.F) {
	f.Add([]byte(`{"t":5,"d":{"i":5},"sum":"00"}`+"\n"), uint16(0), false)
	f.Add([]byte(`{"t":9,"d":`), uint16(0), false)
	f.Add([]byte("\x00\xff"), uint16(40), true)
	f.Add([]byte(" "), uint16(5), true)
	f.Add([]byte("\n"), uint16(70), true)
	f.Fuzz(func(t *testing.T, junk []byte, at uint16, splice bool) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		payload := func(i int) string { return fmt.Sprintf(`{"i":%d,"s":"r%d"}`, i, i) }
		writeLog(t, path, 5, payload)
		clean, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		pos := len(clean)
		if splice {
			pos = int(at) % (len(clean) + 1)
		}
		damaged := append(append(append([]byte{}, clean[:pos]...), junk...), clean[pos:]...)
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		intact := bytes.Count(clean[:pos], []byte("\n"))
		if len(junk) == 0 {
			intact = 5
		}

		recs, good, _, err := Read(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) > 5 || len(recs) < intact {
			t.Fatalf("read %d records, want %d..5", len(recs), intact)
		}
		for i, r := range recs {
			if r.T != int64(i) || string(r.D) != payload(i) {
				t.Fatalf("record %d = {%d %s}, not the one written", i, r.T, r.D)
			}
		}
		if good < 0 || good > int64(len(damaged)) || (good > 0 && damaged[good-1] != '\n') {
			t.Fatalf("good = %d does not end a line of the %d-byte file", good, len(damaged))
		}

		l, err := OpenLog(path, good)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(77, []byte(`{"new":true}`)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		again, _, dropped, err := Read(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if dropped != 0 || len(again) != len(recs)+1 {
			t.Fatalf("after resume: %d records (dropped %d), want %d", len(again), dropped, len(recs)+1)
		}
		for i, r := range recs {
			if again[i].T != r.T || !bytes.Equal(again[i].D, r.D) {
				t.Fatalf("after resume, record %d changed", i)
			}
		}
		if last := again[len(recs)]; last.T != 77 || string(last.D) != `{"new":true}` {
			t.Fatalf("appended record read back as {%d %s}", last.T, last.D)
		}
	})
}

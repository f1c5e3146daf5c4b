package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// openStream yields body, then blocks until the test ends: cmd/wcet
// reading a request from a stdin that stays open.
type openStream struct {
	body []byte
	done chan struct{}
}

func (s *openStream) Read(b []byte) (int, error) {
	if len(s.body) == 0 {
		<-s.done
		return 0, io.EOF
	}
	n := copy(b, s.body)
	s.body = s.body[n:]
	return n, nil
}

// TestDecodeReturnsOnOpenStream checks that decoding stops at the end of
// the request instead of reading on: a request on a stream that stays
// open must decode, whether it fits one read or spans several and
// whether the direct parser or decodeStrict decides it.
func TestDecodeReturnsOnOpenStream(t *testing.T) {
	long := hotRequest()
	long.RTA.Others = append(long.RTA.Others, long.RTA.Others[0], long.RTA.Others[0], long.RTA.Others[0], long.RTA.Others[0])
	longBody, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(longBody) <= readMin {
		t.Fatalf("long body is %d bytes, want more than one %d-byte read", len(longBody), readMin)
	}
	for name, body := range map[string]string{
		"golden":       goldenRequests[0].body,
		"long":         string(longBody),
		"escaped":      strings.Replace(goldenRequests[0].body, `"scenario"`, "\"sc\x5cu0065nario\"", 1),
		"unknownField": `{"scenario": 1, "bogus": 2}`,
	} {
		t.Run(name, func(t *testing.T) {
			want, wantErr := decodeStrictRequest(body)
			s := &openStream{body: []byte(body), done: make(chan struct{})}
			defer close(s.done)
			type result struct {
				req Request
				err error
			}
			ch := make(chan result, 1)
			go func() {
				req, err := DecodeRequest(s)
				ch <- result{req, err}
			}()
			select {
			case got := <-ch:
				if (got.err == nil) != (wantErr == nil) {
					t.Fatalf("DecodeRequest error %v, decodeStrict's %v", got.err, wantErr)
				}
				if got.err == nil && !reflect.DeepEqual(got.req, want) {
					t.Fatalf("DecodeRequest decoded %+v, want %+v", got.req, want)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("DecodeRequest still reading after the request ended")
			}
		})
	}
}

func decodeStrictRequest(body string) (Request, error) {
	var req Request
	err := decodeStrict(strings.NewReader(body), &req)
	return req, err
}

// TestBodyAtLimitKeepsConnection posts requests exactly MaxBodyBytes
// long over one keep-alive connection: decoding must read them without
// tripping the body limit, which would answer and then close the
// connection.
func TestBodyAtLimitKeepsConnection(t *testing.T) {
	body := []byte(goldenRequests[4].body)
	s := New(Config{MaxBodyBytes: int64(len(body))}, nil)
	ts := httptest.NewUnstartedServer(s.Handler())
	var conns atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}
	for i := 0; i < 3; i++ {
		resp, err := client.Post(ts.URL+"/v1/wcet", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, %v", i, resp.StatusCode, err)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("%d connections for 3 keep-alive requests, want 1", n)
	}
}

// TestChunkedDecodeAllocs checks that a body cut into many reads costs
// the direct decoder what it costs in one read: each byte is scanned
// once and the value parsed once, however the body arrives. A body
// trickling in past maxDirectReads goes to decodeStrict and must cost
// about what decodeStrict alone costs.
func TestChunkedDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of Puts, so readBufPool misses at random")
	}
	batchBody := func(n int) []byte {
		var batch BatchRequest
		for i := 0; i < n; i++ {
			batch.Requests = append(batch.Requests, hotRequest())
		}
		body, err := json.Marshal(batch)
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	direct := func(body []byte, chunk int) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := decodeDirect(&chunkReader{bytes.NewReader(body), chunk}, parseBatch); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := batchBody(4)
	whole := direct(small, len(small))
	for _, chunk := range []int{40, 64} {
		if reads := len(small)/chunk + 1; reads >= maxDirectReads {
			t.Fatalf("%d-byte body takes %d reads of %d bytes, want fewer than %d", len(small), reads, chunk, maxDirectReads)
		}
		if got := direct(small, chunk); got > whole+2 {
			t.Errorf("%d-byte batch in %d-byte reads: %.0f allocs, %.0f in one read", len(small), chunk, got, whole)
		}
	}
	large := batchBody(64)
	for _, chunk := range []int{1, 64} {
		strict := testing.AllocsPerRun(5, func() {
			var batch BatchRequest
			if err := decodeStrict(&chunkReader{bytes.NewReader(large), chunk}, &batch); err != nil {
				t.Fatal(err)
			}
		})
		if got := direct(large, chunk); got > strict+4 {
			t.Errorf("%d-byte batch in %d-byte reads: %.0f allocs, decodeStrict %.0f", len(large), chunk, got, strict)
		}
	}
}

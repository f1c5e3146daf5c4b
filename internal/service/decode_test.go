package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
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

// decoderFirstRead is the size of json.Decoder's first Read.
const decoderFirstRead = 512

// TestDecodeReturnsOnOpenStream checks that cmd/wcet stops reading at
// the end of the request: RunCLI and RunCLIV2 (with -models ilpPtac) on
// a stream that stays open must return decodeStrict's response or its
// error, whether the request fits one read or spans several, and whether
// it is escaped or carries an unknown field.
func TestDecodeReturnsOnOpenStream(t *testing.T) {
	long := hotRequest()
	long.RTA.Others = append(long.RTA.Others, long.RTA.Others[0], long.RTA.Others[0], long.RTA.Others[0], long.RTA.Others[0])
	longBody, err := json.Marshal(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(longBody) <= decoderFirstRead {
		t.Fatalf("long body is %d bytes, want more than one %d-byte read", len(longBody), decoderFirstRead)
	}
	models := []string{"ilpPtac"}
	for name, body := range map[string]string{
		"golden":       goldenRequests[0].body,
		"long":         string(longBody),
		"escaped":      strings.Replace(goldenRequests[0].body, `"scenario"`, "\"sc\x5cu0065nario\"", 1),
		"unknownField": `{"scenario": 1, "bogus": 2}`,
	} {
		t.Run(name, func(t *testing.T) {
			checkOpenStream(t, "RunCLI", body, RunCLI, strictCLI(body, func(req Request) (any, error) {
				return Evaluate(req)
			}))
			checkOpenStream(t, "RunCLIV2", body, func(r io.Reader, w io.Writer) error {
				return RunCLIV2(r, w, models)
			}, strictCLI(body, func(req V2Request) (any, error) {
				req.Models = models
				return EvaluateV2(defaultAnalyzer, req)
			}))
		})
	}
}

// cliOutput is what one CLI run printed, or its error.
type cliOutput struct {
	out []byte
	err error
}

// strictCLI is what a CLI run on body must give: decodeStrict's value,
// evaluated and encoded, or decodeStrict's error.
func strictCLI[T any](body string, evaluate func(T) (any, error)) cliOutput {
	var req T
	if err := decodeStrict(strings.NewReader(body), &req); err != nil {
		return cliOutput{err: err}
	}
	resp, err := evaluate(req)
	if err != nil {
		return cliOutput{err: err}
	}
	var out bytes.Buffer
	err = EncodeJSON(&out, resp)
	return cliOutput{out.Bytes(), err}
}

// checkOpenStream runs cli over body on a stream that stays open and
// fails t unless it returns want.
func checkOpenStream(t *testing.T, what, body string, cli func(io.Reader, io.Writer) error, want cliOutput) {
	t.Helper()
	s := &openStream{body: []byte(body), done: make(chan struct{})}
	defer close(s.done)
	ch := make(chan cliOutput, 1)
	go func() {
		var out bytes.Buffer
		err := cli(s, &out)
		ch <- cliOutput{out.Bytes(), err}
	}()
	select {
	case got := <-ch:
		if (got.err == nil) != (want.err == nil) || got.err != nil && got.err.Error() != want.err.Error() {
			t.Fatalf("%s error %v, decodeStrict's %v", what, got.err, want.err)
		}
		if !bytes.Equal(got.out, want.out) {
			t.Fatalf("%s wrote\n%s\nwant\n%s", what, got.out, want.out)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s still reading after the request ended", what)
	}
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
// the direct decoder what it costs in one read, plus at most the read
// buffer's growth steps: the body is read into one pooled buffer and
// parsed once, however it arrives.
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
	for _, body := range [][]byte{batchBody(4), batchBody(64)} {
		// The buffer doubles from its pooled capacity until it holds the
		// body and room for the Read that returns io.EOF.
		growth := 0
		for size := cap(readBufPool.New().(*readBuf).data); size <= len(body); size *= 2 {
			growth++
		}
		whole := direct(body, len(body))
		for _, chunk := range []int{1, 40, 64} {
			if got := direct(body, chunk); got > whole+float64(growth) {
				t.Errorf("%d-byte batch in %d-byte reads: %.0f allocs, %.0f in one read, %d growth steps", len(body), chunk, got, whole, growth)
			}
		}
	}
}

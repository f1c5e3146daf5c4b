package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"reflect"
	"testing"

	"repro/wcet"
)

// FuzzV2Prepare checks the /v2/analyze front door is total: arbitrary
// wire bytes either fail strict decoding, fail Prepare with an error, or
// prepare into an SDK request — never a panic — and Prepare is
// deterministic (two calls on the same decoded request agree), which the
// serving layer's canonical-request cache key depends on.
func FuzzV2Prepare(f *testing.F) {
	// Seeds: the golden /v1 conversations (every v1 body is a valid v2
	// body) plus the v2-only shapes — model selection, templates, exact
	// PTACs, table refs — and near-misses for each.
	for _, g := range goldenRequests {
		f.Add(g.body)
	}
	f.Add(`{
  "scenario": 1,
  "models": ["ftc", "ilpPtac"],
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}`)
	f.Add(`{
  "scenario": 2,
  "models": ["templatePtac"],
  "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "templates": [{"name": "brakeCtl", "maxRequests": {"pf0/co": 120, "lmu/da": 40}}]
}`)
	f.Add(`{
  "scenario": 1,
  "models": ["ideal"],
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "analysedPtac": {"pf0/co": 300, "dfl/da": 25},
  "contenderPtacs": [{"pf1/co": 500}]
}`)
	f.Add(`{"scenario": 1, "table": "tc27x/default", "analysed": {"CCNT": 1000, "PS": 100, "DS": 100}}`)
	f.Add(`{"scenario": 7, "analysed": {"CCNT": 1000}}`)
	f.Add(`{"scenario": 1, "stallMode": "banana"}`)
	f.Add(`{"scenario": 1, "models": [""]}`)
	f.Add(`{"scenario": 1, "models": ["ftc", "fTC"]}`)
	f.Add(`{"scenario": 1, "analysedPtac": {"pf9/co": -1}}`)
	f.Add(`{"scenario": 1, "unknownField": 1}`)
	f.Add(`{"scenario": 1} {"scenario": 2}`)
	f.Add(`[]`)

	reg := wcet.DefaultRegistry()
	f.Fuzz(func(t *testing.T, in string) {
		var req V2Request
		if err := decodeStrict(bytes.NewReader([]byte(in)), &req); err != nil {
			return
		}
		first, err := req.Prepare(reg)
		if err != nil {
			return
		}
		second, err := req.Prepare(reg)
		if err != nil {
			t.Fatalf("Prepare succeeded then failed on the same request: %v", err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("Prepare is nondeterministic:\n first: %+v\nsecond: %+v", first, second)
		}
	})
}

// chunkReader returns at most n bytes per Read, like a network body
// arriving in pieces.
type chunkReader struct {
	r io.Reader
	n int
}

func (c *chunkReader) Read(b []byte) (int, error) {
	if len(b) > c.n {
		b = b[:c.n]
	}
	return c.r.Read(b)
}

// fuzzBody is the body of one FuzzRequestDecoding case as a request
// handler reads it: for a non-zero chunk at most chunk bytes per Read,
// and for a non-zero limit behind http.MaxBytesReader with that limit.
// left reports how many bytes were never read.
func fuzzBody(in []byte, chunk uint8, limit uint16) (r io.Reader, left func() int) {
	br := bytes.NewReader(in)
	r = br
	if chunk > 0 {
		r = &chunkReader{br, int(chunk)}
	}
	if limit > 0 {
		r = http.MaxBytesReader(nil, io.NopCloser(r), int64(limit))
	}
	return r, br.Len
}

// checkDecoder fails t unless decoding in with direct gives what
// decodeStrict gives into a T — the same value (nil and empty slices
// told apart), the same error text — and leaves the same bytes unread.
func checkDecoder[T any](t *testing.T, what string, in []byte, chunk uint8, limit uint16, direct func(io.Reader) (T, error)) {
	t.Helper()
	r, left := fuzzBody(in, chunk, limit)
	var want T
	wantErr := decodeStrict(r, &want)
	if wantErr != nil {
		want = *new(T)
	}
	wantLeft := left()
	r, left = fuzzBody(in, chunk, limit)
	got, err := direct(r)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, decodeStrict's %v", what, err, wantErr)
	}
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) != errors.As(wantErr, &tooLarge) {
		t.Fatalf("%s: error %v and decodeStrict's %v differ in kind", what, err, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded\n%#v\ndecodeStrict decoded\n%#v", what, got, want)
	}
	if left() != wantLeft {
		t.Fatalf("%s: left %d bytes unread, decodeStrict %d", what, left(), wantLeft)
	}
}

// FuzzRequestDecoding checks the direct decoder against decodeStrict,
// its definition, for every analysis shape: DecodeRequest,
// DecodeV2Request and the /v1/batch decode must give decodeStrict's
// value, or its error text, on any bytes, read in any chunking and
// through any MaxBytesReader limit, and must read no more of the body.
// The committed corpus covers what the direct path leaves to
// decodeStrict — escaped and non-ASCII strings, case-folded and repeated
// names, null at every level, numbers it does not take, trailing bytes,
// empty and over-limit bodies — and the plain shapes it serves.
func FuzzRequestDecoding(f *testing.F) {
	for _, g := range goldenRequests {
		f.Add([]byte(g.body), uint8(0), uint16(0))
	}
	f.Add([]byte(goldenBatch), uint8(7), uint16(0))
	for _, v := range []any{hotRequest(), hotV2Request()} {
		body, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, uint8(0), uint16(0))
		// One byte a Read: past maxDirectReads, decodeStrict takes over.
		f.Add(body, uint8(1), uint16(0))
	}
	f.Fuzz(func(t *testing.T, in []byte, chunk uint8, limit uint16) {
		checkDecoder(t, "DecodeRequest", in, chunk, limit, DecodeRequest)
		checkDecoder(t, "DecodeV2Request", in, chunk, limit, DecodeV2Request)
		checkDecoder(t, "batch decode", in, chunk, limit, func(r io.Reader) (BatchRequest, error) {
			return decodeDirect(r, parseBatch)
		})
	})
}

// fuzzResponses builds the responses one FuzzResponseEncoding input
// describes. shape's low two bits give the RTA results (nil, empty, one,
// two), the next bit drops the RTA verdict, the next two give the v2
// estimates (nil, empty, one, two).
func fuzzResponses(model, task string, cycles int64, ratioBits, utilBits uint64, shape uint8, sched bool) (*Response, *V2Response) {
	ratio, util := math.Float64frombits(ratioBits), math.Float64frombits(utilBits)
	est := EstimateOut{Model: model, IsolationCycles: cycles, ContentionCycles: -cycles, WCETCycles: cycles / 3, Ratio: ratio}
	var rta *RTAOut
	if shape&4 == 0 {
		rta = &RTAOut{Model: model, WCETCycles: cycles, Utilization: util, Schedulable: sched}
		if n := int(shape&3) - 1; n >= 0 {
			rta.Results = []RTAResultOut{}
			for i := 0; i < n; i++ {
				rta.Results = append(rta.Results, RTAResultOut{Task: task, ResponseCycles: cycles + int64(i), Schedulable: sched != (i == 1)})
			}
		}
	}
	v2 := &V2Response{RTA: rta}
	if n := int(shape>>3&3) - 1; n >= 0 {
		v2.Estimates = []V2Estimate{}
		for i := 0; i < n; i++ {
			v2.Estimates = append(v2.Estimates, V2Estimate{Name: task, Model: model, IsolationCycles: cycles,
				ContentionCycles: int64(i), WCETCycles: -cycles, Ratio: ratio * float64(i+1)})
		}
	}
	return &Response{FTC: est, ILP: EstimateOut{Model: task, Ratio: util}, RTA: rta}, v2
}

// FuzzResponseEncoding checks EncodeJSON's direct encoding of the
// analysis responses byte for byte against encoding/json's Encoder with
// SetIndent("", "  "), its definition, into a bytes.Buffer and into any
// other writer; both must also agree on failing (a NaN or infinite
// ratio or utilization). The committed corpus covers escaping (<, &,
// U+2028, control bytes, invalid UTF-8 in model and task names), nil
// and empty lists, and ratios at and beside the 1e-6 and 1e21 format
// switches.
func FuzzResponseEncoding(f *testing.F) {
	f.Add("ILP-PTAC", "analysed", int64(472781), math.Float64bits(1.5707009966777408), math.Float64bits(0.8166355555555556), uint8(2|3<<3), true)
	f.Fuzz(func(t *testing.T, model, task string, cycles int64, ratioBits, utilBits uint64, shape uint8, sched bool) {
		v1, v2 := fuzzResponses(model, task, cycles, ratioBits, utilBits, shape, sched)
		for _, v := range []any{v1, v2} {
			var want bytes.Buffer
			enc := json.NewEncoder(&want)
			enc.SetIndent("", "  ")
			wantErr := enc.Encode(v)
			var got bytes.Buffer
			got.WriteString("prefix")
			err := EncodeJSON(&got, v)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("EncodeJSON error %v, encoding/json's %v", err, wantErr)
			}
			if !bytes.Equal(got.Bytes(), append([]byte("prefix"), want.Bytes()...)) {
				t.Fatalf("EncodeJSON differs from encoding/json:\n got: %q\nwant: %q", got.Bytes()[len("prefix"):], want.Bytes())
			}
			var w struct{ bytes.Buffer } // an io.Writer that is not a *bytes.Buffer
			if err := EncodeJSON(&w, v); (err == nil) != (wantErr == nil) || !bytes.Equal(w.Bytes(), want.Bytes()) {
				t.Fatalf("EncodeJSON to a writer: %q, %v; want %q, %v", w.Bytes(), err, want.Bytes(), wantErr)
			}
		}
	})
}

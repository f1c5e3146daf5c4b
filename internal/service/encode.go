package service

import (
	"bytes"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/jsonenc"
)

// encodeBufPool recycles the JSON rendering buffers of the serving path.
// Every response the daemon writes — cached bodies aside — used to grow a
// fresh bytes.Buffer per request; under a saturating client load those
// buffers dominate the allocation profile, so they are pooled and each
// response goes out in a single Write.
var encodeBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledEncodeBuf keeps a giant batch rendering from pinning its
// worst-case buffer in the pool forever; outsized buffers are dropped to
// the GC instead of recycled.
const maxPooledEncodeBuf = 1 << 20

func getEncodeBuf() *bytes.Buffer {
	return encodeBufPool.Get().(*bytes.Buffer)
}

func putEncodeBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledEncodeBuf {
		return
	}
	b.Reset()
	encodeBufPool.Put(b)
}

// encodeRetained renders v with the canonical encoder into a pooled
// scratch buffer and returns an exact-size private copy — what the result
// cache retains. The copy means a resident cache entry holds precisely
// its body, not a pool buffer's growth slack.
func encodeRetained(v any) ([]byte, error) {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	if err := EncodeJSON(buf, v); err != nil {
		return nil, err
	}
	body := make([]byte, buf.Len())
	copy(body, buf.Bytes())
	return body, nil
}

// writeJSON renders v through the canonical encoder into a pooled buffer
// and writes it with one Write call. Byte-for-byte it is EncodeJSON(w, v)
// — same encoder, same indent — without a per-request buffer allocation
// and without the encoder streaming chunked writes into the
// ResponseWriter.
func writeJSON(w http.ResponseWriter, status int, v any) {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	if err := EncodeJSON(buf, v); err != nil {
		// Our own response types always render; if one ever does not,
		// headers may already be gone — nothing recoverable.
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if status != http.StatusOK {
		w.WriteHeader(status)
	}
	_, _ = w.Write(buf.Bytes())
}

// appendAnalysis appends the canonical encoding of an analysis response —
// a *Response or a *V2Response — as EncodeJSON's encoding/json
// configuration writes it: two-space indent, HTML escaping, trailing
// newline. It reports false for any other value and for a response
// encoding/json refuses (a NaN or infinite ratio or utilization), which
// EncodeJSON then hands to encoding/json.
func appendAnalysis(b []byte, v any) ([]byte, bool) {
	switch v := v.(type) {
	case *Response:
		if v != nil {
			return appendResponse(b, v)
		}
	case *V2Response:
		if v != nil {
			return appendV2Response(b, v)
		}
	}
	return b, false
}

func appendResponse(b []byte, r *Response) ([]byte, bool) {
	b, ok := appendEstimate(member(append(b, '{'), 1, "ftc"), 1, nil, &r.FTC)
	if !ok {
		return b, false
	}
	if b, ok = appendEstimate(member(append(b, ','), 1, "ilpPtac"), 1, nil, &r.ILP); !ok {
		return b, false
	}
	return appendRTA(b, r.RTA)
}

func appendV2Response(b []byte, r *V2Response) ([]byte, bool) {
	b = member(append(b, '{'), 1, "estimates")
	switch {
	case r.Estimates == nil:
		b = append(b, "null"...)
	case len(r.Estimates) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range r.Estimates {
			e := &r.Estimates[i]
			if i > 0 {
				b = append(b, ',')
			}
			var ok bool
			b, ok = appendEstimate(append(b, indent(2)...), 2, &e.Name, &EstimateOut{
				Model:            e.Model,
				IsolationCycles:  e.IsolationCycles,
				ContentionCycles: e.ContentionCycles,
				WCETCycles:       e.WCETCycles,
				Ratio:            e.Ratio,
			})
			if !ok {
				return b, false
			}
		}
		b = append(append(b, indent(1)...), ']')
	}
	return appendRTA(b, r.RTA)
}

// appendEstimate appends an estimate object that opens at indent level
// depth; a non-nil name is its first member, as in a V2Estimate.
func appendEstimate(b []byte, depth int, name *string, e *EstimateOut) ([]byte, bool) {
	b = append(b, '{')
	if name != nil {
		b = append(jsonenc.AppendString(member(b, depth+1, "name"), *name), ',')
	}
	b = jsonenc.AppendString(member(b, depth+1, "model"), e.Model)
	b = strconv.AppendInt(member(append(b, ','), depth+1, "isolationCycles"), e.IsolationCycles, 10)
	b = strconv.AppendInt(member(append(b, ','), depth+1, "contentionCycles"), e.ContentionCycles, 10)
	b = strconv.AppendInt(member(append(b, ','), depth+1, "wcetCycles"), e.WCETCycles, 10)
	b, ok := jsonenc.AppendFloat(member(append(b, ','), depth+1, "ratio"), e.Ratio)
	return append(append(b, indent(depth)...), '}'), ok
}

// appendRTA appends a response's optional "rta" member, then closes the
// response.
func appendRTA(b []byte, r *RTAOut) ([]byte, bool) {
	if r != nil {
		b = append(member(append(b, ','), 1, "rta"), '{')
		b = jsonenc.AppendString(member(b, 2, "model"), r.Model)
		b = strconv.AppendInt(member(append(b, ','), 2, "wcetCycles"), r.WCETCycles, 10)
		var ok bool
		if b, ok = jsonenc.AppendFloat(member(append(b, ','), 2, "utilization"), r.Utilization); !ok {
			return b, false
		}
		b = strconv.AppendBool(member(append(b, ','), 2, "schedulable"), r.Schedulable)
		b = member(append(b, ','), 2, "results")
		switch {
		case r.Results == nil:
			b = append(b, "null"...)
		case len(r.Results) == 0:
			b = append(b, "[]"...)
		default:
			b = append(b, '[')
			for i := range r.Results {
				res := &r.Results[i]
				if i > 0 {
					b = append(b, ',')
				}
				b = append(append(b, indent(3)...), '{')
				b = jsonenc.AppendString(member(b, 4, "task"), res.Task)
				b = strconv.AppendInt(member(append(b, ','), 4, "responseCycles"), res.ResponseCycles, 10)
				b = strconv.AppendBool(member(append(b, ','), 4, "schedulable"), res.Schedulable)
				b = append(append(b, indent(3)...), '}')
			}
			b = append(append(b, indent(2)...), ']')
		}
		b = append(append(b, indent(1)...), '}')
	}
	return append(b, "\n}\n"...), true
}

// indents is a line break and the deepest indent the analysis responses
// use.
const indents = "\n        "

// indent is a line break and the indent of nesting level depth.
func indent(depth int) string {
	return indents[:1+2*depth]
}

// member starts an object member at nesting level depth: line break,
// indent, quoted name, colon and space. The caller writes the comma
// before every member but the first.
func member(b []byte, depth int, name string) []byte {
	b = append(b, indent(depth)...)
	b = append(b, '"')
	b = append(b, name...)
	return append(b, `": `...)
}

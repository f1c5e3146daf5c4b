package service

import (
	"io"
	"slices"
	"sync"

	"repro/internal/dsu"
)

// The analysis request shapes — Request, V2Request and BatchRequest —
// are the service's hot wire input: every /v1/wcet and /v2/analyze
// request, cache hits included, decodes one before anything else runs.
// decodeStrict (encoding/json with unknown fields rejected) stays their
// definition; decodeDirect reads a body whole, serves the values inside
// its parser's subset without reflection and hands everything else to
// decodeStrict. json.Marshal of a request stays inside the subset when
// its strings are printable ASCII that json.Marshal does not escape, its
// lists and maps are not nil and its integers have at most 18 digits.

// maxPooledReadBuf keeps a giant batch body from pinning its buffer in
// the pool.
const maxPooledReadBuf = 64 << 10

// readBuf is a direct decode's input, the body read so far. It also
// holds the parser, whose address parse takes: a local would move to the
// heap on every decode.
type readBuf struct {
	data []byte
	p    parser
}

var readBufPool = sync.Pool{New: func() any {
	return &readBuf{data: make([]byte, 0, 2048)}
}}

// decodeDirect decodes one JSON value from r as decodeStrict would into
// a T. It reads r to its end — io.EOF or the first read error — and
// parses the bytes once. A value the parser does not take (a byte
// outside its subset, a value cut short) goes to decodeStrict over the
// same bytes followed by the same read error, so its value or its error
// is the answer. The parse is tried after a read error too: json.Decoder
// scans the bytes a Read returned before it looks at the error, so a
// value that ends before an http.MaxBytesReader's limit still decodes.
// Like json.Decoder, it ignores what follows the value. Unlike it, it
// does not return before r ends: a stream that stays open needs
// decodeStrict.
func decodeDirect[T any](r io.Reader, parse func(*parser) (T, bool)) (T, error) {
	in := readBufPool.Get().(*readBuf)
	defer func() {
		if cap(in.data) <= maxPooledReadBuf {
			in.data = in.data[:0]
			readBufPool.Put(in)
		}
	}()
	var readErr error
	for readErr == nil {
		if len(in.data) == cap(in.data) {
			in.data = slices.Grow(in.data, len(in.data))
		}
		var n int
		n, readErr = r.Read(in.data[len(in.data):cap(in.data)])
		in.data = in.data[:len(in.data)+n]
	}
	in.p = parser{b: in.data}
	if v, ok := parse(&in.p); ok {
		return v, nil
	}
	var v T
	if err := decodeStrict(&bodyThen{in.data, readErr}, &v); err != nil {
		return *new(T), err
	}
	return v, nil
}

// bodyThen reads the bytes of a body, then fails with the error its
// last Read returned.
type bodyThen struct {
	b   []byte
	err error
}

func (t *bodyThen) Read(b []byte) (int, error) {
	if len(t.b) == 0 {
		return 0, t.err
	}
	n := copy(b, t.b)
	t.b = t.b[n:]
	return n, nil
}

// parser reads the analysis request shapes from a buffered JSON value.
// It takes a strict subset of JSON: members matched by their exact name,
// each at most once; strings of printable ASCII without escapes;
// integers of at most maxDigits digits; true and false. It rejects
// anything else — null, other numbers, escapes, non-ASCII, case-folded,
// unknown or repeated names, a value cut short — for decodeStrict to
// decide. What it takes is valid JSON up to its end, where json.Decoder
// stops too.
type parser struct {
	b []byte
	i int
}

// maxDigits keeps every integer the parser takes inside int64 without an
// overflow check: 18 digits are less than 2^63.
const maxDigits = 18

// maxMembers bounds the members of one object: the request shapes have
// at most eleven, and a PTAC map with more goes to decodeStrict.
const maxMembers = 16

// peek skips whitespace and returns the next byte without taking it.
func (p *parser) peek() (byte, bool) {
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c, true
		}
	}
	return 0, false
}

// eat takes c, after whitespace.
func (p *parser) eat(c byte) bool {
	if d, ok := p.peek(); !ok || d != c {
		return false
	}
	p.i++
	return true
}

// raw reads a string's bytes, still in the buffer.
func (p *parser) raw() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	for start := p.i; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (p *parser) str(dst *string) bool {
	s, ok := p.raw()
	if ok {
		*dst = string(s)
	}
	return ok
}

func (p *parser) num(dst *int64) bool {
	c, ok := p.peek()
	if !ok {
		return false
	}
	neg := c == '-'
	if neg {
		p.i++
	}
	start := p.i
	var v int64
	for ; p.i < len(p.b) && '0' <= p.b[p.i] && p.b[p.i] <= '9'; p.i++ {
		v = v*10 + int64(p.b[p.i]-'0')
	}
	// json.Decoder stops at a digit after a leading zero.
	if n := p.i - start; n == 0 || n > maxDigits || n > 1 && p.b[start] == '0' {
		return false
	}
	if neg {
		v = -v
	}
	*dst = v
	return true
}

func (p *parser) numInt(dst *int) bool {
	var v int64
	if !p.num(&v) || int64(int(v)) != v {
		return false
	}
	*dst = int(v)
	return true
}

func (p *parser) boolean(dst *bool) bool {
	c, ok := p.peek()
	if !ok {
		return false
	}
	lit := "false"
	if c == 't' {
		lit = "true"
	}
	if rest := p.b[p.i:]; len(rest) < len(lit) || string(rest[:len(lit)]) != lit {
		return false
	}
	p.i += len(lit)
	*dst = c == 't'
	return true
}

// open takes the opening bracket o of an object or an array and reports
// whether members follow; for an empty one it takes the closing bracket
// c as well.
func (p *parser) open(o, c byte) (more, ok bool) {
	if !p.eat(o) {
		return false, false
	}
	d, ok := p.peek()
	if ok && d == c {
		p.i++
		return false, true
	}
	return ok, ok
}

// next takes what follows a member: a comma, reporting that another
// member follows, or the closing bracket c.
func (p *parser) next(c byte) (more, ok bool) {
	d, ok := p.peek()
	if !ok {
		return false, false
	}
	p.i++
	return d == ',', d == ',' || d == c
}

// object reads an object, calling member with each name and the parser
// at the member's value; member reports whether it took the value. A
// repeated name is rejected: encoding/json would overwrite, or merge
// into, the earlier value.
func (p *parser) object(member func(name []byte) bool) bool {
	more, ok := p.open('{', '}')
	var seen [maxMembers][]byte
	for n := 0; more; n++ {
		name, named := p.raw()
		if !named || n == maxMembers || !p.eat(':') {
			return false
		}
		for _, s := range seen[:n] {
			if string(s) == string(name) {
				return false
			}
		}
		seen[n] = name
		if !member(name) {
			return false
		}
		more, ok = p.next('}')
	}
	return ok
}

// list reads an array into *dst with elem. Like encoding/json it leaves
// an empty array an empty, non-nil slice.
func list[T any](p *parser, dst *[]T, elem func(*T) bool) bool {
	*dst = []T{}
	more, ok := p.open('[', ']')
	for more {
		*dst = append(*dst, *new(T))
		if !elem(&(*dst)[len(*dst)-1]) {
			return false
		}
		more, ok = p.next(']')
	}
	return ok
}

func (p *parser) readings(r *dsu.Readings) bool {
	return p.object(func(name []byte) bool {
		switch string(name) {
		case "CCNT":
			return p.num(&r.CCNT)
		case "PS":
			return p.num(&r.PS)
		case "DS":
			return p.num(&r.DS)
		case "PM":
			return p.num(&r.PM)
		case "DMC":
			return p.num(&r.DMC)
		case "DMD":
			return p.num(&r.DMD)
		}
		return false
	})
}

func (p *parser) rtaTask(t *RTATask) bool {
	return p.object(func(name []byte) bool {
		switch string(name) {
		case "name":
			return p.str(&t.Name)
		case "wcetCycles":
			return p.num(&t.WCETCycles)
		case "periodCycles":
			return p.num(&t.PeriodCycles)
		case "deadlineCycles":
			return p.num(&t.DeadlineCycles)
		case "priority":
			return p.numInt(&t.Priority)
		}
		return false
	})
}

func (p *parser) rta(r *RTARequest) bool {
	return p.object(func(name []byte) bool {
		switch string(name) {
		case "model":
			return p.str(&r.Model)
		case "task":
			return p.rtaTask(&r.Task)
		case "others":
			return list(p, &r.Others, p.rtaTask)
		}
		return false
	})
}

func (p *parser) ptac(dst *map[string]int64) bool {
	m := map[string]int64{}
	*dst = m
	return p.object(func(name []byte) bool {
		var v int64
		if !p.num(&v) {
			return false
		}
		m[string(name)] = v
		return true
	})
}

func (p *parser) template(t *V2Template) bool {
	return p.object(func(name []byte) bool {
		switch string(name) {
		case "name":
			return p.str(&t.Name)
		case "maxRequests":
			return p.ptac(&t.MaxRequests)
		}
		return false
	})
}

// request reads a V2Request; with v2 false it reads a Request as its v2
// view, taking only the members a Request has.
func (p *parser) request(req *V2Request, v2 bool) bool {
	return p.object(func(name []byte) bool {
		switch string(name) {
		case "scenario":
			return p.numInt(&req.Scenario)
		case "analysed":
			return p.readings(&req.Analysed)
		case "contenders":
			return list(p, &req.Contenders, p.readings)
		case "stallMode":
			return p.str(&req.StallMode)
		case "dropContenderInfo":
			return p.boolean(&req.DropContenderInfo)
		case "rta":
			req.RTA = new(RTARequest)
			return p.rta(req.RTA)
		}
		if !v2 {
			return false
		}
		switch string(name) {
		case "table":
			return p.str(&req.Table)
		case "models":
			return list(p, &req.Models, p.str)
		case "templates":
			return list(p, &req.Templates, p.template)
		case "analysedPtac":
			return p.ptac(&req.AnalysedPTAC)
		case "contenderPtacs":
			return list(p, &req.ContenderPTACs, p.ptac)
		}
		return false
	})
}

func parseV1(p *parser) (Request, bool) {
	var v V2Request
	if !p.request(&v, false) {
		return Request{}, false
	}
	return Request{
		Scenario:          v.Scenario,
		Analysed:          v.Analysed,
		Contenders:        v.Contenders,
		StallMode:         v.StallMode,
		DropContenderInfo: v.DropContenderInfo,
		RTA:               v.RTA,
	}, true
}

func parseV2(p *parser) (V2Request, bool) {
	var req V2Request
	ok := p.request(&req, true)
	return req, ok
}

func parseBatch(p *parser) (BatchRequest, bool) {
	var batch BatchRequest
	ok := p.object(func(name []byte) bool {
		return string(name) == "requests" && list(p, &batch.Requests, func(req *Request) bool {
			v, ok := parseV1(p)
			*req = v
			return ok
		})
	})
	return batch, ok
}

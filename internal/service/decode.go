package service

import (
	"io"
	"sync"

	"repro/internal/dsu"
)

// The analysis request shapes — Request, V2Request and BatchRequest —
// are the service's hot wire input: every /v1/wcet and /v2/analyze
// request, cache hits included, decodes one before anything else runs.
// decodeStrict (encoding/json with unknown fields rejected) stays their
// definition; decodeDirect serves the inputs inside its parser's subset
// without reflection and hands everything else to it. json.Marshal of a
// request stays inside the subset when its strings are printable ASCII
// that json.Marshal does not escape, its lists and maps are not nil and
// its integers have at most 18 digits.

// readMin is json.Decoder's minimum read: it grows its buffer to twice
// its capacity plus readMin whenever less than readMin is free.
const readMin = 512

// maxPooledReadBuf keeps a giant batch body from pinning its buffer in
// the pool.
const maxPooledReadBuf = 64 << 10

// maxDirectReads bounds the Read calls a direct decode keeps a record
// of. A value still incomplete after that many is trickling in (a body
// a few bytes per Read) or is very large; decodeStrict takes it over,
// as it would take it alone, and the record stays small.
const maxDirectReads = 64

// readBuf is a direct decode's input: the bytes read so far and the n of
// every Read call that read them. It also holds the parser, whose
// address parse takes: a local would move to the heap on every decode.
type readBuf struct {
	data []byte
	ns   []int
	p    parser
}

var readBufPool = sync.Pool{New: func() any {
	return &readBuf{data: make([]byte, 0, 4*readMin), ns: make([]int, 0, 4)}
}}

// decodeDirect decodes one JSON value from r as decodeStrict would into
// a T. It reads r as json.Decoder does — Read calls of the same sizes,
// until a whole value is buffered — and parses what the first read
// holds. A value that runs past the first read is checked each byte
// once, as it is read, by a scanner that finds its end, and parsed once
// it is complete. Like json.Decoder, it ignores what follows the
// value. Anything it does not take (a byte outside the parser's subset,
// a value parse rejects, EOF or a read error before the value ends,
// more than maxDirectReads reads) goes to decodeStrict over a replay of
// the very Read results consumed, then the rest of r: the decoder sees
// the input it would have seen alone, so its value or its error is the
// answer, and r is read no further than it would read it.
func decodeDirect[T any](r io.Reader, parse func(*parser) (T, bool)) (T, error) {
	in := readBufPool.Get().(*readBuf)
	defer func() {
		if cap(in.data) <= maxPooledReadBuf {
			in.data, in.ns = in.data[:0], in.ns[:0]
			readBufPool.Put(in)
		}
	}()
	var (
		sc      scanner
		readErr error
		size    int // json.Decoder's buffer capacity
	)
	for len(in.ns) < maxDirectReads {
		if size-len(in.data) < readMin {
			size = 2*size + readMin
			if size > cap(in.data) {
				grown := make([]byte, len(in.data), size)
				copy(grown, in.data)
				in.data = grown
			}
		}
		var n int
		n, readErr = r.Read(in.data[len(in.data):size])
		in.ns = append(in.ns, n)
		from := len(in.data)
		in.data = in.data[:from+n]
		p := &in.p
		if len(in.ns) == 1 {
			// The first read usually holds the whole request: parse it
			// at once, and scan only a value it does not hold.
			*p = parser{b: in.data}
			if v, ok := parse(p); ok {
				return v, nil
			}
			if p.i < len(p.b) {
				break // stopped before the end: not a value it takes
			}
		}
		end, done, ok := sc.feed(in.data[from:])
		if done && len(in.ns) > 1 {
			*p = parser{b: in.data[:from+end]}
			if v, ok := parse(p); ok {
				return v, nil
			}
		}
		if done || !ok || readErr != nil {
			break
		}
	}
	var v T
	if err := decodeStrict(&replay{data: in.data, ns: in.ns, err: readErr, r: r}, &v); err != nil {
		return *new(T), err
	}
	return v, nil
}

// scanState is where a scanner stands in the value.
type scanState uint8

const (
	scanTop          scanState = iota // before the opening brace
	scanValue                         // at a value
	scanValueOrClose                  // after '[': a value or ']'
	scanNameOrClose                   // after '{': a name or '}'
	scanName                          // after ',' in an object: a name
	scanColon                         // after a name
	scanAfter                         // after a value: ',' or a closing bracket
	scanNameString                    // inside a name
	scanString                        // inside a string value
	scanMinus                         // after a leading '-'
	scanZero                          // after a leading '0'
	scanDigits                        // inside an integer
	scanLiteral                       // inside true or false
)

// scanner checks a JSON object, a byte at a time and across reads, for
// the syntax of the parser's subset: strings of printable ASCII without
// escapes, integers, true and false, nested at most 64 deep. It holds
// just its state and the open brackets, so however the input is cut
// into reads every byte is looked at once, and it stops where
// json.Decoder stops: at the object's closing brace, or at the first
// byte that is a syntax error — or merely outside the subset, which
// decodeStrict then decides.
type scanner struct {
	state  scanState
	depth  int
	arrays uint64 // bit d is set when nesting level d is an array
	lit    string // the rest of the literal being read
}

// feed scans b, the bytes that follow those fed before. done reports
// that the object ends at b[end-1]; ok false, that a byte of b is
// outside the subset.
func (s *scanner) feed(b []byte) (end int, done, ok bool) {
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch s.state {
		case scanString, scanNameString:
			for ; c != '"'; c = b[i] {
				if c < 0x20 || c == '\\' || c >= 0x80 {
					return 0, false, false
				}
				if i++; i == len(b) {
					return 0, false, true
				}
			}
			if s.state == scanNameString {
				s.state = scanColon
			} else {
				s.state = scanAfter
			}
			continue
		case scanMinus:
			switch {
			case c == '0':
				s.state = scanZero
			case '1' <= c && c <= '9':
				s.state = scanDigits
			default:
				return 0, false, false
			}
			continue
		case scanZero, scanDigits:
			if '0' <= c && c <= '9' {
				if s.state == scanZero {
					return 0, false, false
				}
				continue
			}
			s.state = scanAfter
		case scanLiteral:
			if c != s.lit[0] {
				return 0, false, false
			}
			if s.lit = s.lit[1:]; s.lit == "" {
				s.state = scanAfter
			}
			continue
		}
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			continue
		}
		switch s.state {
		case scanTop:
			if c != '{' || !s.push(false) {
				return 0, false, false
			}
		case scanNameOrClose, scanName:
			switch {
			case c == '"':
				s.state = scanNameString
			case c == '}' && s.state == scanNameOrClose:
				if s.pop() {
					return i + 1, true, true
				}
			default:
				return 0, false, false
			}
		case scanColon:
			if c != ':' {
				return 0, false, false
			}
			s.state = scanValue
		case scanValueOrClose:
			if c == ']' {
				if s.pop() {
					return i + 1, true, true
				}
			} else if !s.value(c) {
				return 0, false, false
			}
		case scanValue:
			if !s.value(c) {
				return 0, false, false
			}
		case scanAfter:
			array := s.arrays>>(s.depth-1)&1 == 1
			switch {
			case c == ',' && array:
				s.state = scanValue
			case c == ',':
				s.state = scanName
			case c == ']' && array, c == '}' && !array:
				if s.pop() {
					return i + 1, true, true
				}
			default:
				return 0, false, false
			}
		}
	}
	return 0, false, true
}

// value starts the value whose first byte is c.
func (s *scanner) value(c byte) bool {
	switch {
	case c == '{':
		return s.push(false)
	case c == '[':
		return s.push(true)
	case c == '"':
		s.state = scanString
	case c == '-':
		s.state = scanMinus
	case c == '0':
		s.state = scanZero
	case '1' <= c && c <= '9':
		s.state = scanDigits
	case c == 't':
		s.state, s.lit = scanLiteral, "rue"
	case c == 'f':
		s.state, s.lit = scanLiteral, "alse"
	default:
		return false
	}
	return true
}

// push opens a nesting level.
func (s *scanner) push(array bool) bool {
	if s.depth == 64 {
		return false
	}
	s.arrays &^= 1 << s.depth
	if array {
		s.arrays |= 1 << s.depth
		s.state = scanValueOrClose
	} else {
		s.state = scanNameOrClose
	}
	s.depth++
	return true
}

// pop closes a nesting level and reports whether it was the outermost.
func (s *scanner) pop() bool {
	s.depth--
	s.state = scanAfter
	return s.depth == 0
}

// replay serves the Read results a direct decode consumed — the same
// bytes cut at the same n, the last with its error — and then reads on
// from r.
type replay struct {
	data []byte
	ns   []int
	err  error
	r    io.Reader
}

func (p *replay) Read(b []byte) (int, error) {
	if len(p.ns) == 0 {
		return p.r.Read(b)
	}
	n := copy(b, p.data[:p.ns[0]])
	p.data, p.ns[0] = p.data[n:], p.ns[0]-n
	if p.ns[0] > 0 {
		return n, nil
	}
	if p.ns = p.ns[1:]; len(p.ns) > 0 {
		return n, nil
	}
	return n, p.err
}

// parser reads the analysis request shapes from a buffered JSON value.
// It takes a strict subset of JSON: members matched by their exact name,
// each at most once; strings of printable ASCII without escapes;
// integers of at most maxDigits digits; true and false. It rejects
// anything else — null, other numbers, escapes, non-ASCII, case-folded,
// unknown or repeated names, a value cut short — for decodeStrict to
// decide. What it takes is valid JSON up to its end, so json.Decoder
// would stop reading there too.
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

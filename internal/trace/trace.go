// Package trace represents the memory-access behaviour of a task as a
// deterministic stream of typed accesses. Traces are what the simulated
// TriCore cores execute: each access is either an instruction fetch or a
// data load/store at a physical address, optionally preceded by a number of
// core-internal compute cycles during which the pipeline does not touch
// memory.
//
// Traces stand in for the compiled automotive binaries the paper runs on
// real silicon: the contention models only observe a task through its DSU
// counters, so any trace reproducing the same access-pattern shape (which
// targets, which operation mix, how dense in time) exercises the identical
// model code paths.
package trace

import "fmt"

// Kind is the type of one trace access.
type Kind int

const (
	// Fetch is an instruction fetch.
	Fetch Kind = iota
	// Load is a data read.
	Load
	// Store is a data write.
	Store
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Fetch:
		return "fetch"
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Access is one element of a task's memory-access stream.
type Access struct {
	// Gap is the number of core-internal execution cycles spent before
	// this access issues (time with no memory activity beyond what the
	// pipeline hides).
	Gap int64
	// Kind says whether this is a fetch, load or store.
	Kind Kind
	// Addr is the physical address accessed.
	Addr uint32
}

// IsData reports whether the access is a load or store.
func (a Access) IsData() bool { return a.Kind == Load || a.Kind == Store }

// Source produces a task's access stream. Implementations must be
// deterministic: two passes over a fresh Source yield the same stream.
type Source interface {
	// Next returns the next access. ok is false when the stream is
	// exhausted.
	Next() (a Access, ok bool)
	// Reset rewinds the stream to its beginning.
	Reset()
}

// Slice is an in-memory Source over a fixed access sequence.
type Slice struct {
	accs []Access
	pos  int
}

// NewSlice wraps a fixed access sequence in a Source.
func NewSlice(accs []Access) *Slice { return &Slice{accs: accs} }

// Next implements Source.
func (s *Slice) Next() (Access, bool) {
	if s.pos >= len(s.accs) {
		return Access{}, false
	}
	a := s.accs[s.pos]
	s.pos++
	return a, true
}

// Reset implements Source.
func (s *Slice) Reset() { s.pos = 0 }

// Len returns the total number of accesses in the slice.
func (s *Slice) Len() int { return len(s.accs) }

// Gen is a Source that generates its stream one step at a time, holding
// only the current step's accesses. A generator whose loop body carries
// state between iterations (address cursors) keeps it in the step closure
// and zeroes it in the reset hook, so each pass replays the same stream.
type Gen struct {
	steps int
	step  func(i int, buf []Access) []Access
	reset func()
	buf   []Access
	i     int
	pos   int
}

// NewGen returns a Source over steps steps: step(i, buf) appends step i's
// accesses to buf and returns it, and is called for i = 0, 1, … in order
// after each Reset. reset, if non-nil, rewinds the state the steps carry.
func NewGen(steps int, step func(i int, buf []Access) []Access, reset func()) *Gen {
	return &Gen{steps: steps, step: step, reset: reset}
}

// Next implements Source.
func (g *Gen) Next() (Access, bool) {
	for g.pos >= len(g.buf) {
		if g.i >= g.steps {
			return Access{}, false
		}
		g.buf = g.step(g.i, g.buf[:0])
		g.i++
		g.pos = 0
	}
	a := g.buf[g.pos]
	g.pos++
	return a, true
}

// Reset implements Source.
func (g *Gen) Reset() {
	g.buf, g.i, g.pos = g.buf[:0], 0, 0
	if g.reset != nil {
		g.reset()
	}
}

// Collect drains src into a slice, resetting it first and afterwards. It is
// intended for tests and for trace inspection tools; the simulator pulls
// accesses one at a time, so a generated source is never materialised.
func Collect(src Source) []Access {
	src.Reset()
	var out []Access
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, a)
	}
	src.Reset()
	return out
}

// Repeat wraps a Source so that it restarts from the beginning each time it
// is exhausted, for up to n full passes; n <= 0 means repeat forever.
// Contender tasks are run as unbounded repeats so they keep generating SRI
// load for as long as the task under analysis executes.
type Repeat struct {
	src    Source
	n      int
	passes int
}

// NewRepeat returns a repeating view of src.
func NewRepeat(src Source, n int) *Repeat { return &Repeat{src: src, n: n} }

// Next implements Source.
func (r *Repeat) Next() (Access, bool) {
	for {
		if a, ok := r.src.Next(); ok {
			return a, true
		}
		r.passes++
		if r.n > 0 && r.passes >= r.n {
			return Access{}, false
		}
		r.src.Reset()
		// Guard against an empty inner source, which would spin forever.
		if a, ok := r.src.Next(); ok {
			return a, true
		}
		return Access{}, false
	}
}

// Reset implements Source.
func (r *Repeat) Reset() {
	r.passes = 0
	r.src.Reset()
}

// Concat chains several sources into one stream.
type Concat struct {
	srcs []Source
	cur  int
}

// NewConcat returns a Source that yields every access of each source in
// order.
func NewConcat(srcs ...Source) *Concat { return &Concat{srcs: srcs} }

// Next implements Source.
func (c *Concat) Next() (Access, bool) {
	for c.cur < len(c.srcs) {
		if a, ok := c.srcs[c.cur].Next(); ok {
			return a, true
		}
		c.cur++
	}
	return Access{}, false
}

// Reset implements Source.
func (c *Concat) Reset() {
	c.cur = 0
	for _, s := range c.srcs {
		s.Reset()
	}
}

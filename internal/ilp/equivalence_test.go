package ilp

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The equivalence tests hold Solve to referenceSolve bit for bit: the
// same Objective, UpperBound and X, the same node and warm-start counts
// and the same error, on generated integer programs.
//
// A fuzz input is a stream of varints (a missing value reads as zero):
//
//	header:     nVars-1 (mod maxSpecVars), nCons (mod maxSpecCons),
//	            MaxNodes-1 (mod fuzzNodeCap), 2×Gap
//	per var:    flags (bit 0 real, bit 1 no upper bound), zigzag lo,
//	            hi-lo, zigzag objective coefficient
//	per row:    sense (mod 3), zigzag rhs, rhs divisor-1 (mod 8),
//	            then nVars zigzag coefficients
//
// Integer data keeps the relaxations well conditioned, as the contention
// models' are; the divisor gives fractional right-hand sides.
const (
	maxSpecVars = 32
	maxSpecCons = 32
	fuzzNodeCap = 30_000
	// specLimit bounds every magnitude: PTAC's counts and stall totals
	// are far below it.
	specLimit = 1_000_000_000
)

type specVar struct {
	lo, span, obj int64
	real, inf     bool
}

type specCons struct {
	sense  Sense
	rhs    int64
	div    int64 // 1..8
	coeffs []int64
}

// ilpSpec is a decoded fuzz input.
type ilpSpec struct {
	vars []specVar
	cons []specCons
	opts Options
}

type specReader struct{ b []byte }

func (r *specReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *specReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v % specLimit
}

func decodeSpec(data []byte) ilpSpec {
	r := specReader{data}
	var sp ilpSpec
	sp.vars = make([]specVar, 1+r.uvarint()%maxSpecVars)
	sp.cons = make([]specCons, r.uvarint()%maxSpecCons)
	sp.opts.MaxNodes = 1 + int(r.uvarint()%fuzzNodeCap)
	sp.opts.Gap = float64(r.uvarint()%(2*specLimit)) / 2
	for j := range sp.vars {
		flags := r.uvarint()
		sp.vars[j] = specVar{
			real: flags&1 != 0,
			inf:  flags&2 != 0,
			lo:   r.varint(),
			span: int64(r.uvarint() % specLimit),
			obj:  r.varint(),
		}
	}
	for i := range sp.cons {
		c := &sp.cons[i]
		c.sense = Sense(r.uvarint() % 3)
		c.rhs = r.varint()
		c.div = 1 + int64(r.uvarint()%8)
		c.coeffs = make([]int64, len(sp.vars))
		for j := range c.coeffs {
			c.coeffs[j] = r.varint()
		}
	}
	return sp
}

// encode is decodeSpec's inverse for specs within its ranges.
func (sp ilpSpec) encode() []byte {
	var b []byte
	b = binary.AppendUvarint(b, uint64(len(sp.vars)-1))
	b = binary.AppendUvarint(b, uint64(len(sp.cons)))
	b = binary.AppendUvarint(b, uint64(sp.opts.MaxNodes-1))
	b = binary.AppendUvarint(b, uint64(2*sp.opts.Gap))
	for _, v := range sp.vars {
		var flags uint64
		if v.real {
			flags |= 1
		}
		if v.inf {
			flags |= 2
		}
		b = binary.AppendUvarint(b, flags)
		b = binary.AppendVarint(b, v.lo)
		b = binary.AppendUvarint(b, uint64(v.span))
		b = binary.AppendVarint(b, v.obj)
	}
	for _, c := range sp.cons {
		b = binary.AppendUvarint(b, uint64(c.sense))
		b = binary.AppendVarint(b, c.rhs)
		b = binary.AppendUvarint(b, uint64(c.div-1))
		for _, a := range c.coeffs {
			b = binary.AppendVarint(b, a)
		}
	}
	return b
}

// build adds the spec's variables and rows to p, which must be empty.
func (sp ilpSpec) build(p *Problem) {
	vars := make([]Var, len(sp.vars))
	for j, v := range sp.vars {
		hi := float64(v.lo + v.span)
		if v.inf {
			hi = Inf
		}
		name := "x" + strconv.Itoa(j)
		if v.real {
			vars[j] = p.AddReal(name, float64(v.lo), hi)
		} else {
			vars[j] = p.AddInt(name, float64(v.lo), hi)
		}
		p.SetObjective(vars[j], float64(v.obj))
	}
	var terms []Term
	for _, c := range sp.cons {
		terms = terms[:0]
		for j, a := range c.coeffs {
			if a != 0 {
				terms = append(terms, Term{vars[j], float64(a)})
			}
		}
		p.Add(terms, c.sense, float64(c.rhs)/float64(c.div))
	}
}

// boxSpec is the spec of randomBox's instance, as solveBox builds it.
func boxSpec(obj []float64, hi []int, cons []bfConstraint, o Options) ilpSpec {
	sp := ilpSpec{opts: o}
	for j := range obj {
		sp.vars = append(sp.vars, specVar{span: int64(hi[j]), obj: int64(obj[j])})
	}
	for _, c := range cons {
		sc := specCons{sense: c.sense, rhs: int64(c.rhs), div: 1}
		for _, a := range c.coeffs {
			sc.coeffs = append(sc.coeffs, int64(a))
		}
		sp.cons = append(sp.cons, sc)
	}
	return sp
}

// deepRangeSpec is a deep single-variable search, the shape PTAC's
// request counts give: 2a - 2b + c = 1 with counts a in [0, n] (unbounded
// when n < 0) and b in [0, 700], and c in {0, 1}, maximizing -c. Every relaxation
// sets a - b to one half at objective 0 until a count's range runs out,
// and only c = 1 is integral, so the search branches on the counts one
// unit at a time, thousands of nodes deep.
func deepRangeSpec(n int64, o Options) ilpSpec {
	a := specVar{span: n}
	if n < 0 {
		a = specVar{inf: true}
	}
	return ilpSpec{
		vars: []specVar{a, {span: 700}, {span: 1, obj: -1}},
		cons: []specCons{{sense: EQ, rhs: 1, div: 1, coeffs: []int64{2, -2, 1}}},
		opts: o,
	}
}

// equivalenceSpecs are the generated inputs: the brute-force oracles'
// boxes under each stop rule, plateaus, deep count ranges, fractional
// right-hand sides, mixed real variables, and infeasible and unbounded
// programs.
func equivalenceSpecs() []ilpSpec {
	var specs []ilpSpec
	next := lcg(0xE9)
	stops := []Options{
		{MaxNodes: fuzzNodeCap},
		{MaxNodes: 3},
		{MaxNodes: fuzzNodeCap, Gap: 1},
		{MaxNodes: fuzzNodeCap, Gap: 0.5},
	}
	for trial := 0; trial < 120; trial++ {
		obj, hi, cons := randomBox(2+next(3), next)
		specs = append(specs, boxSpec(obj, hi, cons, stops[trial%len(stops)]))
	}
	for _, k := range []int64{3, 7} {
		sp := ilpSpec{opts: Options{MaxNodes: fuzzNodeCap}}
		row := specCons{sense: LE, rhs: 2*k + 1, div: 1}
		for j := 0; j < 5; j++ {
			sp.vars = append(sp.vars, specVar{span: k, obj: 1})
			row.coeffs = append(row.coeffs, 2)
		}
		sp.cons = []specCons{row}
		specs = append(specs, sp)
		gapped := sp
		gapped.opts.Gap = 1
		specs = append(specs, gapped)
	}
	for _, n := range []int64{300, -1} {
		for _, o := range stops {
			specs = append(specs, deepRangeSpec(n, o))
		}
	}
	specs = append(specs,
		deepRangeSpec(300, Options{MaxNodes: 500}),
		// max x + y, 2x + 2y <= 5 (LP 2.5, ILP 2), a real y beside it.
		ilpSpec{
			vars: []specVar{{inf: true, obj: 1}, {inf: true, obj: 1, real: true}},
			cons: []specCons{{sense: LE, rhs: 37, div: 10, coeffs: []int64{1, 1}}, {sense: LE, rhs: 5, div: 2, coeffs: []int64{1, 0}}},
			opts: Options{MaxNodes: fuzzNodeCap},
		},
		// 2x = 1: LP-feasible, integer-infeasible.
		ilpSpec{
			vars: []specVar{{span: 10, obj: 1}},
			cons: []specCons{{sense: EQ, rhs: 1, div: 1, coeffs: []int64{2}}},
			opts: Options{MaxNodes: fuzzNodeCap},
		},
		// A fixed variable violating a constant row: presolve infeasible.
		ilpSpec{
			vars: []specVar{{lo: 7, obj: 1}, {inf: true, obj: 1}},
			cons: []specCons{{sense: GE, rhs: 9, div: 1, coeffs: []int64{1, 0}}},
			opts: Options{MaxNodes: fuzzNodeCap},
		},
		// Unbounded.
		ilpSpec{
			vars: []specVar{{inf: true, obj: 1}, {span: 3, obj: -1}},
			cons: []specCons{{sense: GE, rhs: 1, div: 1, coeffs: []int64{1, 1}}},
			opts: Options{MaxNodes: fuzzNodeCap},
		},
	)
	return specs
}

// pooledProblems hands out Problems that earlier checks solved, so the
// equivalence also covers a Solve of a Reset problem reusing its storage.
var pooledProblems = sync.Pool{New: func() any { return New() }}

// checkEquivalent solves sp with Solve twice on a pooled problem and once
// with referenceSolve, and requires all three to agree exactly. Solve
// runs under a live context, so its deadline checks must not move the
// search. With cancelled set the context is done before the search
// starts: Solve must then fail with context.Canceled and return the zero
// Solution, unless presolve alone proves the program infeasible (no
// search runs, so nothing is stopped).
func checkEquivalent(t *testing.T, sp ilpSpec, cancelled bool) {
	t.Helper()
	p := pooledProblems.Get().(*Problem)
	defer pooledProblems.Put(p)
	p.Reset()
	sp.build(p)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := sp.opts
	opts.Ctx = ctx
	if cancelled {
		cancel()
		_, presolveErr := p.buildRelaxation()
		got, err := p.Solve(opts)
		switch {
		case presolveErr != nil && (err == nil || err.Error() != presolveErr.Error()):
			t.Fatalf("cancelled solve of a presolve-infeasible program: error %v, want %v", err, presolveErr)
		case presolveErr == nil && !errors.Is(err, context.Canceled):
			t.Fatalf("cancelled solve: error %v, want context.Canceled\nspec %+v", err, sp)
		case !reflect.DeepEqual(got, Solution{}):
			t.Fatalf("cancelled solve returned %+v, want the zero Solution", got)
		}
		return
	}
	want, wantErr := referenceSolve(p, sp.opts)
	for run := 1; run <= 2; run++ {
		got, err := p.Solve(opts)
		if diff := solutionDiff(got, err, want, wantErr); diff != "" {
			t.Fatalf("solve %d differs from the reference: %s\nspec %+v", run, diff, sp)
		}
	}
}

func solutionDiff(got Solution, gotErr error, want Solution, wantErr error) string {
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	switch {
	case !same(got.Objective, want.Objective):
		return fmt.Sprintf("objective %v, reference %v", got.Objective, want.Objective)
	case !same(got.UpperBound, want.UpperBound):
		return fmt.Sprintf("upper bound %v, reference %v", got.UpperBound, want.UpperBound)
	case got.Nodes != want.Nodes || got.WarmStarts != want.WarmStarts:
		return fmt.Sprintf("%d nodes, %d warm starts; reference %d, %d", got.Nodes, got.WarmStarts, want.Nodes, want.WarmStarts)
	case len(got.xs) != len(want.xs):
		return fmt.Sprintf("x %v, reference %v", got.xs, want.xs)
	}
	for j := range got.xs {
		if !same(got.xs[j], want.xs[j]) || got.names[j] != want.names[j] {
			return fmt.Sprintf("x %v, reference %v", got.xs, want.xs)
		}
	}
	return ""
}

// TestEquivalenceInputs checks that the generated inputs, which
// FuzzSearchEquivalence runs as its seeds, reach every outcome the
// equivalence must cover.
func TestEquivalenceInputs(t *testing.T) {
	outcomes := map[string]int{}
	for _, sp := range equivalenceSpecs() {
		p := New()
		sp.build(p)
		sol, err := p.Solve(sp.opts)
		switch {
		case errors.Is(err, ErrInfeasible):
			outcomes["infeasible"]++
		case errors.Is(err, ErrUnbounded):
			outcomes["unbounded"]++
		case errors.Is(err, ErrNodeLimit):
			outcomes["node limit"]++
		case err != nil:
			t.Fatalf("unexpected error %v", err)
		case sol.UpperBound > sol.Objective:
			outcomes["gap stop"]++
		case sol.Nodes >= 1000:
			outcomes["deep tree"]++
		default:
			outcomes["closed"]++
		}
	}
	for _, o := range []string{"infeasible", "unbounded", "node limit", "gap stop", "deep tree", "closed"} {
		if outcomes[o] == 0 {
			t.Errorf("no generated input ends in %s: %v", o, outcomes)
		}
	}
}

// FuzzSearchEquivalence requires Solve to reproduce the reference branch
// & bound bit for bit on random integer programs, and a Solve whose
// context is cancelled to return no Solution at all. The committed
// corpus holds the Table 5 ILP-PTAC programs (table5-scenario1 closes at
// the root, table5-scenario2 takes 2,551 nodes, and
// table5-scenario2-cancelled is that search under a cancelled context).
func FuzzSearchEquivalence(f *testing.F) {
	for i, sp := range equivalenceSpecs() {
		f.Add(sp.encode(), false)
		if i%4 == 0 {
			f.Add(sp.encode(), true)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, cancelled bool) {
		checkEquivalent(t, decodeSpec(data), cancelled)
	})
}

// table5Seed decodes a committed corpus input.
func table5Seed(t testing.TB, name string) ilpSpec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzSearchEquivalence", name))
	if err != nil {
		t.Fatal(err)
	}
	// The corpus file format: a header line, then one line per fuzz
	// argument; the program is the []byte("...") line.
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	lit := strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")")
	data, err := strconv.Unquote(lit)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return decodeSpec([]byte(data))
}

// TestTable5Seeds pins the committed Table 5 programs to the bounds and
// tree sizes the contention model reports for them (TestTable5Bounds at
// the repository root), so the corpus keeps the 2,551-node search.
func TestTable5Seeds(t *testing.T) {
	for _, tc := range []struct {
		name  string
		nodes int
		bound float64
	}{
		{"table5-scenario1", 1, 20500},
		{"table5-scenario2", 2551, 22981},
	} {
		p := New()
		table5Seed(t, tc.name).build(p)
		sol, err := p.Solve(table5Seed(t, tc.name).opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sol.Nodes != tc.nodes || sol.UpperBound != tc.bound {
			t.Errorf("%s: %d nodes, bound %g; want %d, %g", tc.name, sol.Nodes, sol.UpperBound, tc.nodes, tc.bound)
		}
	}
}

// stopAfter is a context that turns done on its n-th Err call.
type stopAfter struct {
	context.Context
	n int
}

func (c *stopAfter) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestTable5StopsOnContext stops Table 5 scenario 2's 2,551-node search
// before its first node and at its third context check (node 128): both
// are errors wrapping context.Canceled, and neither returns a bound.
func TestTable5StopsOnContext(t *testing.T) {
	sp := table5Seed(t, "table5-scenario2")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		ctx   context.Context
		nodes int
	}{
		{cancelled, 0},
		{&stopAfter{context.Background(), 3}, 2 * ctxCheckNodes},
	} {
		p := New()
		sp.build(p)
		opts := sp.opts
		opts.Ctx = tc.ctx
		sol, err := p.Solve(opts)
		if !errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), fmt.Sprintf("after %d nodes", tc.nodes)) {
			t.Errorf("error %v, want context.Canceled after %d nodes", err, tc.nodes)
		}
		if !reflect.DeepEqual(sol, Solution{}) {
			t.Errorf("stopped after %d nodes, returned %+v; want the zero Solution", tc.nodes, sol)
		}
	}
}

// TestRepeatedSolveAllocs pins the search's memory to the tree's depth,
// not its size: re-solving a pooled problem costs the same allocations
// (the returned names and incumbent) whether the tree has one node or
// Table 5 scenario 2's 2,551.
func TestRepeatedSolveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops a quarter of Puts, so pooled Solvers miss at random")
	}
	allocs := func(name string) float64 {
		sp := table5Seed(t, name)
		p := New()
		sp.build(p)
		return testing.AllocsPerRun(5, func() {
			if _, err := p.Solve(sp.opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, deep := allocs("table5-scenario1"), allocs("table5-scenario2")
	if deep != one {
		t.Errorf("a repeated 2,551-node solve allocates %.0f times, a 1-node solve %.0f", deep, one)
	}
}

// Package ilp solves small integer linear programs by branch & bound over
// the LP relaxation (package lp). It exists because the paper formulates
// the ILP-PTAC contention model as an integer program over per-target
// access counts; the instances it generates have a couple of dozen
// variables and integral data, well inside what an exact branch & bound
// handles instantly.
//
// Variables carry names so the contention model can be inspected and
// debugged symbolically; Solution.Value looks results up by name. During
// the search itself everything is index-based: incumbents are stored as
// dense vectors and names are attached exactly once, to the final
// solution, so no per-node map or lookup allocation happens on the branch
// & bound hot path (use Solution.ValueOf/IntOf to read results
// index-directly).
//
// # Solver reuse and warm starts
//
// Each Solve builds one lp.Problem for the whole branch & bound tree and
// adjusts only variable bounds per node (lp.Problem.SetBounds), which is
// precisely the mutation shape lp.Solver warm-starts: a child node's
// relaxation resumes from its parent's optimal basis via the dual simplex
// instead of re-solving from scratch. Solvers are drawn from a package
// pool, so their tableau arenas amortize across Solve calls (and across
// requests, when callers like the wcetd batch handler fan out many
// analyses). Fixed variables — lower bound equal to upper bound at the
// root, as produced by dominated-template pre-pruning in the contention
// models — are substituted out before the LP is built and never reach the
// solver; constraints left with no free variables are feasibility-checked
// once and dropped.
package ilp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/lp"
	"repro/internal/telemetry"
)

// Process-wide solver telemetry, flushed once per Solve (never per pivot
// or per node — lp.Solver accumulates locally and the deltas land here),
// so the hot path pays a handful of atomic adds per ILP, not per
// operation. Registered on the telemetry default registry and exposed by
// wcetd's GET /metrics.
var (
	mWarmStarts = telemetry.Default().Counter("solver_warm_starts_total",
		"LP solves served by the warm-start dual simplex path.")
	mWarmFallbacks = telemetry.Default().Counter("solver_warm_fallbacks_total",
		"Warm-start attempts that hit a late structural mismatch and rebuilt cold.")
	mColdSolves = telemetry.Default().Counter("solver_cold_solves_total",
		"LP solves built from scratch (including warm fallbacks).")
	mPivots = telemetry.Default().Counter("solver_pivots_total",
		"Simplex pivots across all phases and solves.")
	mBBNodes = telemetry.Default().Counter("solver_bb_nodes_total",
		"Branch & bound nodes explored.")
	mILPSolves = telemetry.Default().Counter("solver_ilp_solves_total",
		"ILP Solve calls.")
	mPoolGets = telemetry.Default().Counter("solver_pool_gets_total",
		"lp.Solver checkouts from the package pool.")
	mPoolNews = telemetry.Default().Counter("solver_pool_news_total",
		"lp.Solvers constructed because the pool was empty (gets minus news = arena reuses).")
)

// Inf is the canonical "no upper bound" value.
var Inf = lp.Inf

// Sense re-exports the constraint directions.
type Sense = lp.Sense

// Constraint senses.
const (
	LE = lp.LE
	GE = lp.GE
	EQ = lp.EQ
)

// Term is one named coefficient in a linear expression.
type Term struct {
	Var   Var
	Coeff float64
}

// Var is a handle to a problem variable.
type Var struct {
	idx  int
	name string
}

// Name returns the variable's name.
func (v Var) Name() string { return v.name }

// Problem is an integer program: maximize the objective subject to linear
// constraints, with every variable integer. Build with New.
type Problem struct {
	names   []string
	byName  map[string]int
	lower   []float64
	upper   []float64
	obj     []float64
	cons    []savedCons
	integer []bool
	// termArena backs every constraint's term slice (see lp.Problem for
	// the aliasing discipline), rel the relaxation rebuilt in place by
	// each Solve and bb its search state. All survive Reset: a pooled
	// Problem rebuilds its model and searches without allocating.
	termArena []lp.Term
	rel       relaxation
	bb        search
}

type savedCons struct {
	terms []lp.Term
	sense Sense
	rhs   float64
}

// New returns an empty maximization problem.
func New() *Problem {
	return &Problem{byName: make(map[string]int)}
}

// Reset empties the problem for rebuilding in place, retaining allocated
// capacity — variable storage, constraint storage, the term arena, and
// the relaxation's scratch space. Callers that estimate in a loop (the
// contention models pool their builders) reset instead of reallocating.
func (p *Problem) Reset() {
	p.names = p.names[:0]
	if p.byName == nil {
		p.byName = make(map[string]int)
	} else {
		clear(p.byName)
	}
	p.lower = p.lower[:0]
	p.upper = p.upper[:0]
	p.obj = p.obj[:0]
	p.cons = p.cons[:0]
	p.integer = p.integer[:0]
	p.termArena = p.termArena[:0]
}

// AddInt adds an integer variable with inclusive bounds [lo, hi] (hi may be
// Inf) and zero objective coefficient. Names must be unique and non-empty.
func (p *Problem) AddInt(name string, lo, hi float64) Var {
	return p.add(name, lo, hi, true)
}

// AddReal adds a continuous variable (useful for LP-relaxation ablations).
func (p *Problem) AddReal(name string, lo, hi float64) Var {
	return p.add(name, lo, hi, false)
}

func (p *Problem) add(name string, lo, hi float64, integer bool) Var {
	if name == "" {
		panic("ilp: empty variable name")
	}
	if _, dup := p.byName[name]; dup {
		panic(fmt.Sprintf("ilp: duplicate variable %q", name))
	}
	if lo > hi {
		panic(fmt.Sprintf("ilp: variable %q has empty bounds [%g, %g]", name, lo, hi))
	}
	idx := len(p.names)
	p.names = append(p.names, name)
	p.byName[name] = idx
	p.lower = append(p.lower, lo)
	p.upper = append(p.upper, hi)
	p.obj = append(p.obj, 0)
	p.integer = append(p.integer, integer)
	return Var{idx: idx, name: name}
}

// SetObjective sets the coefficient of v in the maximized objective.
func (p *Problem) SetObjective(v Var, coeff float64) {
	p.obj[v.idx] = coeff
}

// Add appends the constraint sum(terms) sense rhs.
func (p *Problem) Add(terms []Term, sense Sense, rhs float64) {
	start := len(p.termArena)
	for _, t := range terms {
		p.termArena = append(p.termArena, lp.Term{Var: t.Var.idx, Coeff: t.Coeff})
	}
	ts := p.termArena[start:len(p.termArena):len(p.termArena)]
	p.cons = append(p.cons, savedCons{terms: ts, sense: sense, rhs: rhs})
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.names) }

// Solution is the best integer assignment found, together with a proved
// upper bound on the optimum.
type Solution struct {
	// Objective is the incumbent's objective value.
	Objective float64
	// UpperBound is a proved bound on the true optimum: no integer
	// assignment can exceed it. When the search ran to completion it
	// equals Objective; under a Gap or node cutoff it may be larger by at
	// most the configured gap. Consumers needing a *sound over-
	// approximation* (such as WCET contention bounds) must read
	// UpperBound, not Objective.
	UpperBound float64
	names      []string  // variable names by index (a private copy)
	xs         []float64 // incumbent by variable index, integers rounded
	// Nodes is the number of branch & bound nodes explored.
	Nodes int
	// WarmStarts is how many of this Solve's node relaxations resumed
	// from a previous basis via the warm-start dual simplex instead of a
	// cold rebuild (trace spans surface it beside Nodes).
	WarmStarts int
}

// Value returns the value of the named variable, panicking on unknown
// names (a misspelled name in model code is a bug, not a runtime
// condition). The lookup is a linear scan — fine for the debug and
// inspection uses names exist for; hot paths use ValueOf/IntOf, which
// index directly.
func (s Solution) Value(name string) float64 {
	for j, n := range s.names {
		if n == name {
			return s.xs[j]
		}
	}
	panic(fmt.Sprintf("ilp: no variable %q in solution", name))
}

// Int returns the named value rounded to the nearest integer.
func (s Solution) Int(name string) int64 {
	return int64(math.Round(s.Value(name)))
}

// ValueOf returns the value of variable v by index — the lookup the
// models use on their hot path, with no name hashing.
func (s Solution) ValueOf(v Var) float64 { return s.xs[v.idx] }

// IntOf returns ValueOf rounded to the nearest integer.
func (s Solution) IntOf(v Var) int64 { return int64(math.Round(s.xs[v.idx])) }

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("ilp: problem is infeasible")
	ErrUnbounded  = errors.New("ilp: problem is unbounded")
	ErrNodeLimit  = errors.New("ilp: branch & bound node limit exceeded")
)

// Options tunes Solve.
type Options struct {
	// MaxNodes bounds the branch & bound tree; 0 means the default (1e6).
	MaxNodes int
	// Gap, when positive, lets the search stop once the proved optimality
	// gap (UpperBound - Objective) is at most Gap. Large symmetric
	// instances — many equal-cost integer splits of the same budget —
	// have plateaus that exact search must enumerate; a gap of one
	// request latency collapses them while UpperBound stays sound.
	Gap float64
	// Ctx, when done, stops the search with an error wrapping Ctx.Err()
	// and no Solution. A nil Ctx never stops.
	Ctx context.Context
}

const defaultMaxNodes = 1_000_000

// ctxCheckNodes is how many nodes the search explores per look at Ctx.
const ctxCheckNodes = 64

// intTol is the integrality tolerance: relaxation values this close to an
// integer are accepted as integral.
const intTol = 1e-6

// feasTol is the tolerance for constant-row feasibility checks during
// presolve, matching the LP's phase-1 infeasibility threshold.
const feasTol = 1e-7

// pending is an unexplored node: its parent's bounds, which undoing the
// trail to mark restores, with variable v narrowed to [lo, hi] (the root,
// v < 0, narrows nothing). parent is the parent relaxation objective,
// used for pruning and for the open bound.
type pending struct {
	mark, v        int32
	lo, hi, parent float64
}

// undo is a trail entry: variable v's bounds before a node narrowed them.
type undo struct {
	v      int32
	lo, hi float64
}

// solverPool recycles lp.Solvers (and with them their tableau arenas)
// across Solve calls, including across concurrently handled service
// requests. A Solver is bound to at most one Solve at a time.
var solverPool = sync.Pool{New: func() any {
	mPoolNews.Inc()
	return lp.NewSolver()
}}

// Solve maximizes the problem over integer assignments by a sequential,
// depth-first branch & bound. The search is deterministic: the same
// Problem and Options always explore the same tree and return the same
// Solution.
func (p *Problem) Solve(opts Options) (Solution, error) {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}

	// Build the shared LP relaxation once; every node then only moves
	// variable bounds. Presolve may already prove infeasibility.
	rel, err := p.buildRelaxation()
	if err != nil {
		return Solution{}, err
	}
	solver := solverPool.Get().(*lp.Solver)
	mPoolGets.Inc()
	mILPSolves.Inc()
	s := &p.bb
	*s = search{
		p:        p,
		rel:      rel,
		solver:   solver,
		opts:     opts,
		maxNodes: maxNodes,
		bestObj:  math.Inf(-1),
		stack:    s.stack[:0],
		trail:    s.trail[:0],
		lower:    append(s.lower[:0], p.lower...),
		upper:    append(s.upper[:0], p.upper...),
	}
	statsBase := solver.Stats()
	defer func() {
		// One flush per Solve: the per-node accounting stayed in the
		// Solver's plain fields until here.
		d := solver.Stats()
		mWarmStarts.Add(d.Warm - statsBase.Warm)
		mWarmFallbacks.Add(d.WarmFallbacks - statsBase.WarmFallbacks)
		mColdSolves.Add(d.Cold - statsBase.Cold)
		mPivots.Add(d.Pivots - statsBase.Pivots)
		mBBNodes.Add(int64(s.nodes))
		solverPool.Put(solver)
		s.solver, s.bestX, s.opts.Ctx = nil, nil, nil // owned by the pool, the Solution, the caller
	}()

	// When every objective coefficient is integral and every variable
	// with a non-zero coefficient is integer, all integer-feasible
	// objective values are integers, so a node whose relaxation bound
	// rounds down to the incumbent value cannot improve on it. This
	// integral pruning is what keeps the large-count contention ILPs
	// (tens of thousands of requests) at a handful of nodes.
	s.objIntegral = true
	for j, c := range p.obj {
		if c != math.Trunc(c) || (c != 0 && !p.integer[j]) {
			s.objIntegral = false
			break
		}
	}

	s.rootBound = math.Inf(1)
	s.stack = append(s.stack, pending{v: -1, parent: math.Inf(1)})

	if err := s.run(); err != nil {
		return Solution{}, err
	}
	return s.finish(statsBase)
}

// search is the branch & bound state of one Solve. lower and upper hold
// the current node's bounds; the trail records what each node on the
// path from the root narrowed, so the state is O(depth), not O(depth ×
// vars). Marks on the last-in, first-out stack never decrease.
type search struct {
	p        *Problem
	rel      *relaxation
	solver   *lp.Solver
	opts     Options
	maxNodes int

	objIntegral bool

	stack        []pending
	trail        []undo
	lower, upper []float64

	nodes     int
	bestX     []float64 // incumbent, by variable index; nil when none yet
	bestObj   float64
	rootBound float64
}

// enter makes lower and upper the bounds of node n.
func (s *search) enter(n pending) {
	for k := len(s.trail) - 1; k >= int(n.mark); k-- {
		u := s.trail[k]
		s.lower[u.v], s.upper[u.v] = u.lo, u.hi
	}
	s.trail = s.trail[:n.mark]
	if n.v >= 0 {
		s.trail = append(s.trail, undo{n.v, s.lower[n.v], s.upper[n.v]})
		s.lower[n.v], s.upper[n.v] = n.lo, n.hi
	}
}

func (s *search) dominated(bound, incumbent float64) bool {
	if math.IsInf(incumbent, -1) {
		return false
	}
	if s.objIntegral {
		return math.Floor(bound+intTol) <= incumbent+intTol
	}
	return bound <= incumbent+intTol
}

// openBound is the largest relaxation bound among unexplored nodes — the
// current proof of what the optimum cannot exceed.
func (s *search) openBound() float64 {
	ub := math.Inf(-1)
	for _, n := range s.stack {
		if n.parent > ub {
			ub = n.parent
		}
	}
	if !math.IsInf(s.rootBound, 1) && s.rootBound < ub {
		ub = s.rootBound
	}
	return ub
}

// run executes the depth-first loop until the tree is closed or one of the
// early stop conditions (proved optimum, gap cutoff) holds. The node
// limit and a done Ctx stop it with an error: a cut search proves no bound.
func (s *search) run() error {
	for len(s.stack) > 0 {
		if s.nodes >= s.maxNodes {
			return fmt.Errorf("%w (%d nodes)", ErrNodeLimit, s.nodes)
		}
		if s.nodes%ctxCheckNodes == 0 && s.opts.Ctx != nil {
			if err := s.opts.Ctx.Err(); err != nil {
				return fmt.Errorf("ilp: branch & bound stopped after %d nodes: %w", s.nodes, err)
			}
		}
		s.nodes++
		// Depth-first: take the most recent node.
		n := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if s.dominated(n.parent, s.bestObj) {
			continue // parent bound already dominated
		}

		s.enter(n)
		status, obj, x, err := s.rel.solve(s.solver, s.p, s.lower, s.upper)
		if err != nil {
			return err
		}
		switch status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// An unbounded relaxation at the root means the ILP is
			// unbounded (with integral data there is an integer ray).
			return ErrUnbounded
		}
		if s.nodes == 1 {
			s.rootBound = obj
		}
		if s.dominated(obj, s.bestObj) {
			continue
		}

		// Find the most fractional variable.
		branch := -1
		worst := intTol
		for j, xj := range x {
			if !s.p.integer[j] {
				continue
			}
			frac := math.Abs(xj - math.Round(xj))
			if frac > worst {
				worst = frac
				branch = j
			}
		}
		if branch < 0 {
			// Integral: new incumbent. Keep only the dense vector;
			// names are attached once, after the search.
			s.bestObj = obj
			s.bestX = append(s.bestX[:0], x...)
			// With an integral objective, an incumbent matching the
			// floored root relaxation bound is provably optimal — stop
			// without draining the plateau of equal-bound nodes.
			if s.objIntegral && s.bestObj >= math.Floor(s.rootBound+intTol)-intTol {
				return nil
			}
			// Gap cutoff: good enough per the caller's tolerance.
			if s.opts.Gap > 0 && s.openBound()-s.bestObj <= s.opts.Gap {
				return nil
			}
			continue
		}

		// Branch on x_branch <= floor and x_branch >= ceil, diving into
		// the child nearest the relaxation optimum first (it is pushed
		// last): following the LP solution finds a strong incumbent in a
		// handful of dives even on large symmetric instances.
		xb := x[branch]
		v, mark := int32(branch), int32(len(s.trail))
		up := pending{mark, v, math.Ceil(xb), s.upper[branch], obj}
		down := pending{mark, v, s.lower[branch], math.Floor(xb), obj}
		first, second := down, up // nearest child goes second (popped first)
		if xb-math.Floor(xb) > 0.5 {
			first, second = up, down
		}
		for _, c := range [2]pending{first, second} {
			if c.lo <= c.hi {
				s.stack = append(s.stack, c)
			}
		}
	}
	return nil
}

// finish assembles the Solution once the search has stopped.
func (s *search) finish(statsBase lp.SolveStats) (Solution, error) {
	if s.bestX == nil {
		return Solution{}, ErrInfeasible
	}
	for j := range s.bestX {
		if s.p.integer[j] {
			s.bestX[j] = math.Round(s.bestX[j])
		}
	}
	// The name slice is copied: a pooled Problem's names backing is
	// rewritten in place after Reset, and the Solution must outlive that.
	names := make([]string, len(s.p.names))
	copy(names, s.p.names)
	best := Solution{
		Objective:  s.bestObj,
		UpperBound: s.bestObj,
		names:      names,
		xs:         s.bestX,
		Nodes:      s.nodes,
		WarmStarts: int(s.solver.Stats().Warm - statsBase.Warm),
	}
	if len(s.stack) > 0 {
		if ub := s.openBound(); ub > s.bestObj {
			best.UpperBound = ub
		}
		if s.objIntegral {
			best.UpperBound = math.Floor(best.UpperBound + intTol)
		}
	}
	return best, nil
}

// relaxation is the LP built once per Solve and re-bounded per node. It
// lives inside the Problem and is rebuilt in place, so repeated Solves of
// a Reset problem reuse all of its storage.
type relaxation struct {
	rp *lp.Problem
	// lpIdx maps a problem variable index to its LP column, or -1 when
	// the variable was fixed (lower == upper at the root) and presolved
	// out of the LP entirely.
	lpIdx []int
	x     []float64 // full-length scratch, overwritten per node
	terms []lp.Term // constraint-remap scratch
}

// buildRelaxation constructs the shared LP: fixed variables are
// substituted out, constraints with no free variables are checked for
// feasibility and dropped, everything else carries over with the fixed
// contribution folded into the RHS. Returns ErrInfeasible when a constant
// row is violated.
func (p *Problem) buildRelaxation() (*relaxation, error) {
	rel := &p.rel
	if rel.rp == nil {
		rel.rp = lp.NewProblem()
	} else {
		rel.rp.Reset()
	}
	// Both are overwritten entry by entry: only their length matters.
	rel.lpIdx = slices.Grow(rel.lpIdx[:0], len(p.names))[:len(p.names)]
	rel.x = slices.Grow(rel.x[:0], len(p.names))[:len(p.names)]
	for j := range p.names {
		if p.lower[j] == p.upper[j] {
			rel.lpIdx[j] = -1
			continue
		}
		rel.lpIdx[j] = rel.rp.AddVar(p.lower[j], p.upper[j], p.obj[j])
	}
	terms := rel.terms
	defer func() { rel.terms = terms[:0] }()
	for _, c := range p.cons {
		terms = terms[:0]
		fixed := 0.0
		for _, t := range c.terms {
			if rel.lpIdx[t.Var] < 0 {
				fixed += t.Coeff * p.lower[t.Var]
			} else {
				terms = append(terms, lp.Term{Var: rel.lpIdx[t.Var], Coeff: t.Coeff})
			}
		}
		rhs := c.rhs - fixed
		if len(terms) == 0 {
			// Constant row: all variables fixed. Check it once and drop.
			ok := true
			switch c.sense {
			case LE:
				ok = rhs >= -feasTol
			case GE:
				ok = rhs <= feasTol
			case EQ:
				ok = math.Abs(rhs) <= feasTol
			}
			if !ok {
				return nil, ErrInfeasible
			}
			continue
		}
		rel.rp.AddConstraint(terms, c.sense, rhs)
	}
	return rel, nil
}

// solve evaluates one node's relaxation: move the LP bounds to lower and
// upper and re-solve, taking the Solver's warm-start path whenever the
// tableau layout is unchanged. The returned x is rel's scratch vector, valid until
// the next call; the objective is recomputed over the full vector in
// variable order so presolve does not perturb bound values.
func (rel *relaxation) solve(s *lp.Solver, p *Problem, lower, upper []float64) (lp.Status, float64, []float64, error) {
	for j, li := range rel.lpIdx {
		if li >= 0 {
			rel.rp.SetBounds(li, lower[j], upper[j])
		}
	}
	sol, err := s.Solve(rel.rp)
	if err != nil {
		return 0, 0, nil, err
	}
	if sol.Status != lp.Optimal {
		return sol.Status, 0, nil, nil
	}
	for j, li := range rel.lpIdx {
		if li < 0 {
			rel.x[j] = p.lower[j]
		} else {
			rel.x[j] = sol.X[li]
		}
	}
	var obj float64
	for j, xj := range rel.x {
		obj += p.obj[j] * xj
	}
	return lp.Optimal, obj, rel.x, nil
}

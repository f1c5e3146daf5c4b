package lp

import (
	"errors"
	"math"
)

// Solver is a reusable simplex engine. Unlike the package-level Solve, a
// Solver retains its dense tableau, basis, reduced-cost row and every
// scratch slice between calls (an arena), so a caller that solves many
// problems of similar size pays for matrix allocation once instead of per
// solve. On top of the arena it implements warm starts: when consecutive
// Solve calls present the *same problem structure* — the same Problem
// value, with no variables or constraints added in between, only bounds
// (SetBounds) or right-hand sides (SetRHS) changed — the solver resumes
// from the previous optimal basis with a dual-simplex cleanup instead of
// re-solving from scratch. That is exactly the shape branch & bound child
// nodes and adjacent sweep-grid cells produce, and it typically cuts the
// pivot count per re-solve by an order of magnitude.
//
// # Reuse contract
//
// A Solver may retain, between calls: the full tableau of the last solve,
// its basis and reduced costs, and the identity of the last Problem
// (a structural generation counter, not a reference — the Problem's memory
// is never pinned). Solution.X returned by (*Solver).Solve aliases the
// solver's arena only until the next Solve call on the same Solver; the
// package-level Solve never reuses a Solver, so its solutions are
// unaliased. A Solver is NOT safe for concurrent use; use one per
// goroutine (internal/ilp pools them).
//
// # What invalidates a basis
//
// The warm path is taken only when all of the following hold; otherwise
// the solver silently falls back to a cold solve, so warm starting is a
// pure optimisation, never a behaviour change:
//
//   - the previous call solved the same Problem (same identity) to
//     optimality;
//   - no variable or constraint was added since (structural generation
//     unchanged);
//   - the pattern of finite upper bounds is unchanged (a bound moving
//     between finite and +Inf adds or removes a tableau row);
//   - no row's shifted right-hand side changed sign (the cold build
//     normalises negative RHS rows by negation, so a sign change alters
//     the tableau layout).
//
// Bound and RHS changes that pass these checks preserve dual feasibility
// of the stored basis (costs and columns are untouched), so the dual
// simplex — with Bland's anti-cycling rules — restores primal feasibility
// in few pivots and terminates.
type Solver struct {
	// Last-solve identity: which problem structure the stored tableau
	// belongs to.
	probID    uint64
	structGen uint64
	ok        bool // last solve reached Optimal and the tableau is reusable

	n        int // structural variables
	m        int // tableau rows
	nCols    int // structural + slack + artificial columns
	artStart int

	rows  []rowInfo
	a     [][]float64 // m rows of nCols+1 (RHS in column nCols)
	abuf  []float64   // arena backing a
	basis []int
	d     []float64 // reduced costs under the phase-2 cost vector
	dOn   bool      // pivots maintain d

	blocked  []bool    // columns barred from entering (artificials in phase 2)
	cost     []float64 // scratch cost vector
	shiftRHS []float64 // post-shift, post-flip RHS of the last build
	scratch  []float64 // candidate RHS during warm validation
	upInf    []bool    // finite-upper pattern of the last build

	stats SolveStats // cumulative accounting since construction
}

// SolveStats is the Solver's cumulative work accounting: how often the
// warm path succeeded, how often a warm attempt surfaced a late
// structural mismatch and fell back cold, how many solves built from
// scratch, and the total simplex pivots across all phases. A Solver is
// single-goroutine, so plain fields suffice; callers that aggregate
// across pooled solvers (internal/ilp) diff Stats() around a solve and
// flush the delta to their own counters.
type SolveStats struct {
	Warm          int64 // solves served by the warm dual-simplex path
	WarmFallbacks int64 // warm attempts that fell back to a cold build
	Cold          int64 // solves built from scratch (incl. fallbacks)
	Pivots        int64 // simplex pivots, all phases
}

// Stats returns the cumulative solve statistics.
func (s *Solver) Stats() SolveStats { return s.stats }

// rowInfo records one tableau row's provenance and normalisation.
type rowInfo struct {
	// src is the constraint index, or -(v+1) for the upper-bound row of
	// variable v.
	src int
	// sense is the row's sense after negative-RHS normalisation.
	sense Sense
	// flipped records whether the row was negated during the cold build.
	flipped bool
	// carrier is the column that held this row's +1 identity at build
	// time (the slack of a <= row, the artificial of a >=/= row); its
	// tableau column is the corresponding column of the basis inverse.
	carrier int
}

// NewSolver returns an empty Solver; the first Solve sizes the arena.
func NewSolver() *Solver { return &Solver{} }

// Solve maximizes the problem, warm-starting from the previous call's
// basis when the problem differs only in bounds or right-hand sides. The
// returned error is non-nil only for internal failures (iteration
// budget); infeasibility and unboundedness are reported in
// Solution.Status. Solution.X aliases the Solver's arena until the next
// Solve call.
func (s *Solver) Solve(p *Problem) (Solution, error) {
	n := len(p.obj)
	if n == 0 {
		s.ok = false
		return Solution{Status: Optimal}, nil
	}
	if s.canWarm(p) {
		if sol, done, err := s.warmSolve(p); done {
			s.stats.Warm++
			return sol, err
		}
		s.stats.WarmFallbacks++
	}
	s.stats.Cold++
	return s.coldSolve(p)
}

// canWarm reports whether the stored tableau belongs to p's current
// structure.
func (s *Solver) canWarm(p *Problem) bool {
	if !s.ok || s.probID != p.id || s.structGen != p.structGen || s.n != len(p.obj) {
		return false
	}
	for j, inf := range s.upInf {
		if math.IsInf(p.upper[j], 1) != inf {
			return false
		}
	}
	return true
}

// warmSolve re-solves after bound/RHS changes from the stored optimal
// basis. done=false means a structural mismatch surfaced late (an RHS
// sign flip) and the caller must fall back to the cold path.
func (s *Solver) warmSolve(p *Problem) (Solution, bool, error) {
	// Recompute every row's shifted RHS under the current bounds; any
	// flip-pattern change invalidates the stored layout.
	if cap(s.scratch) < s.m {
		s.scratch = make([]float64, s.m)
	}
	s.scratch = s.scratch[:s.m]
	for i, ri := range s.rows {
		var rhs float64
		if ri.src >= 0 {
			c := &p.cons[ri.src]
			rhs = c.RHS
			for _, t := range c.Terms {
				rhs -= t.Coeff * p.lower[t.Var]
			}
		} else {
			v := -ri.src - 1
			rhs = p.upper[v] - p.lower[v]
		}
		if (rhs < 0) != ri.flipped {
			return Solution{}, false, nil
		}
		if ri.flipped {
			rhs = -rhs
		}
		s.scratch[i] = rhs
	}

	// Push the RHS deltas through the basis inverse, which the tableau
	// already holds in each row's carrier column.
	for i := range s.rows {
		delta := s.scratch[i] - s.shiftRHS[i]
		if delta == 0 {
			continue
		}
		col := s.rows[i].carrier
		for k := 0; k < s.m; k++ {
			s.a[k][s.nCols] += delta * s.a[k][col]
		}
	}
	copy(s.shiftRHS, s.scratch)

	// Dual simplex: the stored basis stayed dual feasible (costs and
	// columns unchanged), so restoring primal feasibility restores
	// optimality. Bland-style rules (leave: smallest basis index among
	// violated rows; enter: smallest index attaining the minimum dual
	// ratio) guarantee termination.
	s.dOn = true
	for iter := 0; iter < maxIter; iter++ {
		leave := -1
		for i := 0; i < s.m; i++ {
			if s.a[i][s.nCols] < -tol && (leave < 0 || s.basis[i] < s.basis[leave]) {
				leave = i
			}
		}
		if leave < 0 {
			// Primal feasibility of the tableau is not yet feasibility of
			// the problem: a basic artificial standing in for an EQ/GE row
			// must also have stayed at zero. A positive value there means
			// the pushed deltas landed on a violated row that dual simplex
			// cannot see (artificial columns are blocked from entering, and
			// a nonnegative RHS raises no alarm) — exactly the shape a
			// redundant equality row takes when its duplicate's RHS moves.
			// Rebuild cold and let phase 1 judge feasibility.
			for i := 0; i < s.m; i++ {
				if s.basis[i] >= s.artStart && s.a[i][s.nCols] > tol {
					return Solution{}, false, nil
				}
			}
			return s.extract(p), true, nil
		}
		row := s.a[leave]
		enter := -1
		var best float64
		for j := 0; j < s.nCols; j++ {
			if row[j] >= -tol || (s.blocked != nil && s.blocked[j]) {
				continue
			}
			dj := s.d[j]
			if dj < 0 {
				dj = 0 // round-off below the optimality tolerance
			}
			ratio := dj / -row[j]
			if enter < 0 || ratio < best {
				best, enter = ratio, j
			}
		}
		if enter < 0 {
			// The violated row has no negative entry: with y >= 0 its
			// left side cannot reach the negative RHS.
			s.ok = false
			return Solution{Status: Infeasible}, true, nil
		}
		s.pivot(leave, enter)
	}
	s.ok = false
	return Solution{}, true, ErrNotConverged
}

// coldSolve builds the tableau from scratch and runs the two-phase primal
// simplex, storing the final state for future warm starts.
func (s *Solver) coldSolve(p *Problem) (Solution, error) {
	s.ok = false
	n := len(p.obj)

	// Pass 1: row skeleton — shifted RHS, negative-RHS normalisation,
	// column layout. Variables are shifted to y = x - lo >= 0; finite
	// upper bounds become explicit y <= hi - lo rows.
	s.rows = s.rows[:0]
	for ci := range p.cons {
		c := &p.cons[ci]
		rhs := c.RHS
		for _, t := range c.Terms {
			rhs -= t.Coeff * p.lower[t.Var]
		}
		ri := rowInfo{src: ci, sense: c.Sense}
		if rhs < 0 {
			ri.flipped = true
			rhs = -rhs
			switch ri.sense {
			case LE:
				ri.sense = GE
			case GE:
				ri.sense = LE
			}
		}
		s.rows = append(s.rows, ri)
		s.scratch = append(s.scratch[:len(s.rows)-1], rhs)
	}
	s.upInf = resizeBool(s.upInf, n)
	for j := 0; j < n; j++ {
		s.upInf[j] = math.IsInf(p.upper[j], 1)
		if !s.upInf[j] {
			s.rows = append(s.rows, rowInfo{src: -(j + 1), sense: LE})
			s.scratch = append(s.scratch[:len(s.rows)-1], p.upper[j]-p.lower[j])
		}
	}
	m := len(s.rows)

	nSlack, nArt := 0, 0
	for _, ri := range s.rows {
		if ri.sense != EQ {
			nSlack++
		}
		if ri.sense != LE {
			nArt++
		}
	}
	artStart := n + nSlack
	nCols := artStart + nArt
	s.n, s.m, s.artStart, s.nCols = n, m, artStart, nCols

	// Arena layout: m tableau rows of nCols+1, then the support slices.
	s.abuf = resizeFloat(s.abuf, m*(nCols+1))
	if cap(s.a) < m {
		s.a = make([][]float64, m)
	}
	s.a = s.a[:m]
	for i := 0; i < m; i++ {
		s.a[i] = s.abuf[i*(nCols+1) : (i+1)*(nCols+1)]
	}
	s.basis = resizeInt(s.basis, m)
	s.d = resizeFloat(s.d, nCols)
	s.cost = resizeFloat(s.cost, nCols)
	s.shiftRHS = resizeFloat(s.shiftRHS, m)
	copy(s.shiftRHS, s.scratch[:m])
	s.blocked = nil
	s.dOn = false

	// Pass 2: fill the matrix in the same element order as a fresh
	// build, so a reused arena is numerically indistinguishable from a
	// new allocation.
	slackIdx, artIdx := n, artStart
	for i := range s.rows {
		ri := &s.rows[i]
		row := s.a[i]
		if ri.src >= 0 {
			for _, t := range p.cons[ri.src].Terms {
				row[t.Var] += t.Coeff
			}
		} else {
			row[-ri.src-1] = 1
		}
		if ri.flipped {
			for j := 0; j < n; j++ {
				row[j] = -row[j]
			}
		}
		row[nCols] = s.shiftRHS[i]
		switch ri.sense {
		case LE:
			row[slackIdx] = 1
			s.basis[i] = slackIdx
			ri.carrier = slackIdx
			slackIdx++
		case GE:
			row[slackIdx] = -1
			slackIdx++
			row[artIdx] = 1
			s.basis[i] = artIdx
			ri.carrier = artIdx
			artIdx++
		case EQ:
			row[artIdx] = 1
			s.basis[i] = artIdx
			ri.carrier = artIdx
			artIdx++
		}
	}

	// Phase 1: minimize the sum of artificials.
	if nArt > 0 {
		clear(s.cost)
		for j := artStart; j < nCols; j++ {
			s.cost[j] = 1
		}
		obj, status, err := s.minimize(s.cost)
		if err != nil {
			return Solution{}, err
		}
		if status == Unbounded {
			return Solution{}, errors.New("lp: phase-1 unbounded (internal error)")
		}
		if obj > 1e-7 {
			return Solution{Status: Infeasible}, nil
		}
		// Pivot any artificial still in the basis out (its value is 0);
		// if its row has no usable column the row is redundant and the
		// artificial may stay pinned at zero as long as it never
		// re-enters: we forbid re-entry by blocking artificial columns
		// in phase 2.
		s.dOn = false
		for i := 0; i < m; i++ {
			if s.basis[i] < artStart {
				continue
			}
			for j := 0; j < artStart; j++ {
				if math.Abs(s.a[i][j]) > tol {
					s.pivot(i, j)
					break
				}
			}
		}
	}

	// Phase 2: minimize -objective over structural + slack columns only.
	clear(s.cost)
	for j := 0; j < n; j++ {
		s.cost[j] = -p.obj[j]
	}
	s.blocked = resizeBool(s.blocked, nCols)
	for j := artStart; j < nCols; j++ {
		s.blocked[j] = true
	}
	_, status, err := s.minimize(s.cost)
	if err != nil {
		return Solution{}, err
	}
	if status == Unbounded {
		return Solution{Status: Unbounded}, nil
	}

	s.probID, s.structGen = p.id, p.structGen
	return s.extract(p), nil
}

// extract reads the primal solution off the tableau and marks the state
// reusable. X aliases the scratch arena.
func (s *Solver) extract(p *Problem) Solution {
	n := s.n
	if cap(s.scratch) < n {
		s.scratch = make([]float64, n)
	}
	x := s.scratch[:n]
	clear(x)
	for i, b := range s.basis {
		if b < n {
			x[b] = s.a[i][s.nCols]
		}
	}
	var objVal float64
	for j := 0; j < n; j++ {
		x[j] += p.lower[j] // unshift
		objVal += p.obj[j] * x[j]
	}
	s.ok = true
	return Solution{Status: Optimal, Objective: objVal, X: x}
}

// pivot performs a standard tableau pivot on (r, c) and, when enabled,
// keeps the reduced-cost row in sync.
func (s *Solver) pivot(r, c int) {
	s.stats.Pivots++
	pr := s.a[r]
	pv := pr[c]
	for j := range pr {
		pr[j] /= pv
	}
	for i := 0; i < s.m; i++ {
		if i == r {
			continue
		}
		f := s.a[i][c]
		if f == 0 {
			continue
		}
		ri := s.a[i]
		for j := range ri {
			ri[j] -= f * pr[j]
		}
	}
	if s.dOn {
		if f := s.d[c]; f != 0 {
			for j := 0; j < s.nCols; j++ {
				s.d[j] -= f * pr[j]
			}
		}
	}
	s.basis[r] = c
}

// minimize runs the primal simplex with Bland's rule on the given cost
// vector starting from the current basic feasible solution, maintaining
// the reduced-cost row incrementally. It returns the achieved objective
// value.
func (s *Solver) minimize(cost []float64) (float64, Status, error) {
	// Fresh reduced costs: d_j = cost_j - cB . B^-1 A_j. The tableau is
	// already B^-1 A, so d_j = cost_j - sum_i cost[basis[i]]*a[i][j].
	for j := 0; j < s.nCols; j++ {
		v := cost[j]
		for i := 0; i < s.m; i++ {
			if cb := cost[s.basis[i]]; cb != 0 {
				v -= cb * s.a[i][j]
			}
		}
		s.d[j] = v
	}
	s.dOn = true
	for iter := 0; iter < maxIter; iter++ {
		enter := -1
		for j := 0; j < s.nCols; j++ {
			if s.blocked != nil && s.blocked[j] {
				continue
			}
			if s.d[j] < -tol {
				enter = j // Bland: first improving index
				break
			}
		}
		if enter < 0 {
			var obj float64
			for i := 0; i < s.m; i++ {
				obj += cost[s.basis[i]] * s.a[i][s.nCols]
			}
			return obj, Optimal, nil
		}
		// Ratio test with Bland tie-break on smallest basis index.
		leave := -1
		best := math.Inf(1)
		for i := 0; i < s.m; i++ {
			if s.a[i][enter] > tol {
				ratio := s.a[i][s.nCols] / s.a[i][enter]
				if ratio < best-tol || (ratio < best+tol && (leave < 0 || s.basis[i] < s.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return 0, Unbounded, nil
		}
		s.pivot(leave, enter)
	}
	return 0, Optimal, ErrNotConverged
}

// resizeFloat returns buf resized to n elements, zeroed, reusing its
// backing array when large enough.
func resizeFloat(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func resizeInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

func resizeBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

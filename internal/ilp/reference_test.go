package ilp

import (
	"fmt"
	"math"

	"repro/internal/lp"
)

// referenceSolve is the branch & bound that Solve replaced, kept as the
// oracle of the equivalence tests: every pending node carries its own
// copies of the lower and upper bound vectors, recycled through a
// freelist. It builds the same relaxation and takes a fresh Solver, so
// it explores the same tree as Solve with the same warm starts; it skips
// the telemetry flush.
func referenceSolve(p *Problem, opts Options) (Solution, error) {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}
	rel, err := p.buildRelaxation()
	if err != nil {
		return Solution{}, err
	}
	solver := lp.NewSolver()
	s := &refSearch{
		p:        p,
		rel:      rel,
		solver:   solver,
		opts:     opts,
		maxNodes: maxNodes,
		bestObj:  math.Inf(-1),
	}
	statsBase := solver.Stats()

	s.objIntegral = true
	for j, c := range p.obj {
		if c != math.Trunc(c) || (c != 0 && !p.integer[j]) {
			s.objIntegral = false
			break
		}
	}

	s.rootBound = math.Inf(1)
	root := refNode{lower: s.cloneOf(p.lower), upper: s.cloneOf(p.upper), bound: math.Inf(1)}
	s.stack = append(s.stack, root)

	if err := s.run(); err != nil {
		return Solution{}, err
	}
	return s.finish(statsBase)
}

type refNode struct {
	lower, upper []float64
	// bound is the parent relaxation objective, used for best-first
	// ordering and pruning.
	bound float64
}

// refSearch is the branch & bound state of one referenceSolve.
type refSearch struct {
	p        *Problem
	rel      *relaxation
	solver   *lp.Solver
	opts     Options
	maxNodes int

	objIntegral bool

	stack     []refNode
	nodes     int
	bestX     []float64
	bestObj   float64
	rootBound float64

	free [][]float64
}

func (s *refSearch) cloneOf(src []float64) []float64 {
	var dst []float64
	if k := len(s.free); k > 0 {
		dst, s.free = s.free[k-1][:len(src)], s.free[:k-1]
	} else {
		dst = make([]float64, len(src))
	}
	copy(dst, src)
	return dst
}

func (s *refSearch) recycle(n refNode) {
	s.free = append(s.free, n.lower, n.upper)
}

func (s *refSearch) dominated(bound, incumbent float64) bool {
	if math.IsInf(incumbent, -1) {
		return false
	}
	if s.objIntegral {
		return math.Floor(bound+intTol) <= incumbent+intTol
	}
	return bound <= incumbent+intTol
}

func (s *refSearch) openBound() float64 {
	ub := math.Inf(-1)
	for _, n := range s.stack {
		if n.bound > ub {
			ub = n.bound
		}
	}
	if !math.IsInf(s.rootBound, 1) && s.rootBound < ub {
		ub = s.rootBound
	}
	return ub
}

func (s *refSearch) run() error {
	for len(s.stack) > 0 {
		if s.nodes >= s.maxNodes {
			return fmt.Errorf("%w (%d nodes)", ErrNodeLimit, s.nodes)
		}
		s.nodes++
		n := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if s.dominated(n.bound, s.bestObj) {
			s.recycle(n)
			continue
		}

		status, obj, x, err := s.rel.solve(s.solver, s.p, n.lower, n.upper)
		if err != nil {
			return err
		}
		switch status {
		case lp.Infeasible:
			s.recycle(n)
			continue
		case lp.Unbounded:
			return ErrUnbounded
		}
		if s.nodes == 1 {
			s.rootBound = obj
		}
		if s.dominated(obj, s.bestObj) {
			s.recycle(n)
			continue
		}

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
			s.bestObj = obj
			s.bestX = append(s.bestX[:0], x...)
			s.recycle(n)
			if s.objIntegral && s.bestObj >= math.Floor(s.rootBound+intTol)-intTol {
				return nil
			}
			if s.opts.Gap > 0 && s.openBound()-s.bestObj <= s.opts.Gap {
				return nil
			}
			continue
		}

		xb := x[branch]
		up := refNode{lower: s.cloneOf(n.lower), upper: s.cloneOf(n.upper), bound: obj}
		up.lower[branch] = math.Ceil(xb)
		down := refNode{lower: s.cloneOf(n.lower), upper: s.cloneOf(n.upper), bound: obj}
		down.upper[branch] = math.Floor(xb)
		first, second := down, up
		if xb-math.Floor(xb) > 0.5 {
			first, second = up, down
		}
		s.recycle(n)
		if first.lower[branch] <= first.upper[branch] {
			s.stack = append(s.stack, first)
		} else {
			s.recycle(first)
		}
		if second.lower[branch] <= second.upper[branch] {
			s.stack = append(s.stack, second)
		} else {
			s.recycle(second)
		}
	}
	return nil
}

func (s *refSearch) finish(statsBase lp.SolveStats) (Solution, error) {
	if s.bestX == nil {
		return Solution{}, ErrInfeasible
	}
	for j := range s.bestX {
		if s.p.integer[j] {
			s.bestX[j] = math.Round(s.bestX[j])
		}
	}
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

package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dsu"
	"repro/internal/ilp"
	"repro/internal/platform"
)

// StallMode selects how the stall-decomposition constraints (Eq. 20-23)
// relate a task's per-target access counts to its observed stall totals.
type StallMode int

const (
	// StallBudget uses Σ n^{t,o} · cs^{t,o} <= PS/DS: the observed stall
	// total is a budget the per-target counts must fit under, since every
	// real request stalls at least cs^{t,o} cycles. Always sound — on
	// real hardware the per-request stalls exceed the minimum, so an
	// exact decomposition may not exist. This is the default.
	StallBudget StallMode = iota
	// StallExact uses the paper's literal equalities Σ n^{t,o} · cs^{t,o}
	// = PS/DS. Appropriate when per-request stalls are known to equal the
	// Table 2 minima (true on the deterministic simulator), infeasible
	// when they do not.
	StallExact
)

// String names the mode.
func (m StallMode) String() string {
	switch m {
	case StallBudget:
		return "budget"
	case StallExact:
		return "exact"
	default:
		return fmt.Sprintf("StallMode(%d)", int(m))
	}
}

// PTACOptions tunes the ILP-PTAC model.
type PTACOptions struct {
	// StallMode picks budget (default) vs exact stall decomposition.
	StallMode StallMode
	// DropContenderInfo removes the contenders' stall constraints
	// (Eq. 22-23) and per-type count caps, making the model fully
	// time-composable as noted in §3.5 — the ablation DESIGN.md calls
	// out.
	DropContenderInfo bool
	// MaxNodes caps the branch & bound; 0 uses the solver default.
	MaxNodes int
	// Gap is the absolute branch & bound optimality gap; 0 uses one
	// worst-case request latency. Large instances have plateaus of
	// equal-cost integer budget splits that exact search would have to
	// enumerate; the reported bound is the solver's proved upper bound,
	// so it stays a sound worst case regardless of the gap — the gap only
	// trades (at most that many cycles of) tightness for solve time.
	Gap float64
	// Ctx stops the branch & bound when done (ilp.Options.Ctx).
	Ctx context.Context
}

// ptacBuilder accumulates the ILP formulation. Builders are pooled: every
// slice below is scratch that survives between estimates so the model
// build allocates almost nothing in the steady state. Variable slices are
// indexed by pair index (position in accessPairs).
type ptacBuilder struct {
	p    *ilp.Problem
	in   Input
	opts PTACOptions

	na, nb, xs       []ilp.Var
	nbAll, xsAll     []ilp.Var // per-contender handles, bi*len(accessPairs)+pi
	coTerms, daTerms []ilp.Term
	terms, tgtTerms  []ilp.Term
	pruned           []bool
}

// builderPool recycles ptacBuilders (and with them their ilp.Problems,
// term arenas, and relaxation storage) across estimates — including
// across concurrently handled service requests; a builder is bound to at
// most one estimate at a time.
var builderPool = sync.Pool{New: func() any { return &ptacBuilder{p: ilp.New()} }}

func newPTACBuilder(in Input, opts PTACOptions) *ptacBuilder {
	b := builderPool.Get().(*ptacBuilder)
	b.p.Reset()
	b.in, b.opts = in, opts
	return b
}

// release returns the builder to the pool, dropping input references so
// pooled builders do not pin caller data.
func (b *ptacBuilder) release() {
	b.in, b.opts = Input{}, PTACOptions{}
	builderPool.Put(b)
}

// ILPPTAC computes the partially time-composable ILP-PTAC bound (paper
// §3.5): the worst-case per-target mapping of the analysed task's and the
// contenders' requests consistent with all isolation readings and the
// scenario tailoring of Table 5, maximizing the contention inflicted on
// the analysed task (the objective of Eq. 9).
//
// With more than one contender, the constraint blocks of Eq. 10-19 and
// 22-23 are replicated per contender and the objective sums their
// interference — under round-robin arbitration each contender can delay
// each analysed-task request once.
func ILPPTAC(in Input, opts PTACOptions) (Estimate, error) {
	if err := in.Validate(); err != nil {
		return Estimate{}, err
	}
	if len(in.B) == 0 {
		return Estimate{}, fmt.Errorf("core: ILP-PTAC needs at least one contender measurement")
	}

	b := newPTACBuilder(in, opts)
	defer b.release()

	// n^{t,o}_a plus its stall decomposition (Eq. 20-21) and tailoring.
	b.na = b.addTaskVars(-1, b.na)
	b.addStallConstraints(b.na, in.A)
	b.addTailoring(b.na, in.A)

	b.nbAll, b.xsAll = b.nbAll[:0], b.xsAll[:0]
	for bi, rb := range in.B {
		// n^{t,o}_b plus Eq. 22-23 and tailoring (deployment
		// configurations apply equally to contenders, §4.1) — unless the
		// contender-information ablation drops them.
		b.nb = b.addTaskVars(bi, b.nb)
		if !opts.DropContenderInfo {
			b.addStallConstraints(b.nb, rb)
			b.addTailoring(b.nb, rb)
		}
		b.addInterference(bi, b.na, b.nb, rb, nil)
		b.nbAll = append(b.nbAll, b.nb...)
		b.xsAll = append(b.xsAll, b.xs...)
	}

	model := "ILP-PTAC"
	if opts.DropContenderInfo {
		model = "ILP-PTAC-fTC"
	}
	est, err := b.solve(model)
	if err != nil {
		return Estimate{}, fmt.Errorf("core: ILP-PTAC (%s, %s mode): %w", in.Scenario.Name, opts.StallMode, err)
	}
	return est, nil
}

// solve solves the built model under the builder's options and returns
// the estimate named model: the solver's bound, and the decomposition of
// the analysed task and of each contender in nbAll and xsAll. The caller
// wraps a solver error with its model's context.
func (b *ptacBuilder) solve(model string) (Estimate, error) {
	gap := b.opts.Gap
	if gap <= 0 {
		gap = defaultGap(b.in.Lat)
	}
	sol, err := b.p.Solve(ilp.Options{MaxNodes: b.opts.MaxNodes, Gap: gap, Ctx: b.opts.Ctx})
	if err != nil {
		return Estimate{}, err
	}
	decomp := make(map[string]int64)
	for pi := range accessPairs {
		decomp[naNames[pi]] = sol.IntOf(b.na[pi])
		for bi := 0; bi < len(b.nbAll)/len(accessPairs); bi++ {
			decomp[nbVarName(bi, pi)] = sol.IntOf(b.nbAll[bi*len(accessPairs)+pi])
			decomp[xVarName(bi, pi)] = sol.IntOf(b.xsAll[bi*len(accessPairs)+pi])
		}
	}
	// The contention bound must over-approximate the worst case, so it is
	// the solver's *proved upper bound* on the ILP optimum, not the
	// incumbent (they coincide when the search completed exactly).
	return Estimate{
		Model:            model,
		IsolationCycles:  b.in.A.CCNT,
		ContentionCycles: int64(sol.UpperBound + 0.5),
		Decomposition:    decomp,
		Nodes:            sol.Nodes,
		WarmStarts:       sol.WarmStarts,
	}, nil
}

// addTaskVars creates the seven n^{t,o} variables of one task (bi < 0 for
// the analysed task) into dst, indexed by pair index. Placement-derived
// zero pins always apply: a deployment that puts no code or data on a
// target cannot generate that traffic, whoever the task is.
func (b *ptacBuilder) addTaskVars(bi int, dst []ilp.Var) []ilp.Var {
	dst = dst[:0]
	for pi, to := range accessPairs {
		hi := ilp.Inf
		if !b.in.Scenario.Deploy.MayAccess(to.Target, to.Op) {
			hi = 0
		}
		dst = append(dst, b.p.AddInt(taskVarName(bi, pi), 0, hi))
	}
	return dst
}

// addStallConstraints encodes Eq. 20-23 for one task: the observed code and
// data stall totals constrain the cs^{t,o}-weighted sums of its per-target
// counts.
func (b *ptacBuilder) addStallConstraints(vars []ilp.Var, r dsu.Readings) {
	sense := ilp.LE
	if b.opts.StallMode == StallExact {
		sense = ilp.EQ
	}
	coTerms, daTerms := b.coTerms[:0], b.daTerms[:0]
	for pi, to := range accessPairs {
		term := ilp.Term{Var: vars[pi], Coeff: float64(b.in.Lat.MinStall(to.Target, to.Op))}
		if to.Op == platform.Code {
			coTerms = append(coTerms, term)
		} else {
			daTerms = append(daTerms, term)
		}
	}
	b.coTerms, b.daTerms = coTerms, daTerms
	b.p.Add(coTerms, sense, float64(r.PS))
	b.p.Add(daTerms, sense, float64(r.DS))
}

// addTailoring encodes the Table 5 counter constraints for one task.
func (b *ptacBuilder) addTailoring(vars []ilp.Var, r dsu.Readings) {
	sc := b.in.Scenario
	if sc.CodeCountExact {
		// All SRI code is cacheable, so PCACHE_MISS counts SRI code
		// requests exactly: Σ_t n^{t,co} = PM.
		terms := b.terms[:0]
		for _, t := range platform.Targets {
			if pi := pairIdx[t][platform.Code]; pi >= 0 && sc.Deploy.MayAccess(t, platform.Code) {
				terms = append(terms, ilp.Term{Var: vars[pi], Coeff: 1})
			}
		}
		b.terms = terms
		if len(terms) > 0 {
			b.p.Add(terms, ilp.EQ, float64(r.PM))
		}
	}
	if sc.CacheableDataFloor {
		// The D-cache miss counters give the cacheable data requests but
		// not their targets; non-cacheable accesses add on top, so the
		// sum of data PTACs is at least DMC + DMD.
		terms := b.terms[:0]
		for _, t := range platform.Targets {
			if pi := pairIdx[t][platform.Data]; pi >= 0 && sc.Deploy.MayAccess(t, platform.Data) {
				terms = append(terms, ilp.Term{Var: vars[pi], Coeff: 1})
			}
		}
		b.terms = terms
		if len(terms) > 0 {
			b.p.Add(terms, ilp.GE, float64(r.DMC+r.DMD))
		}
	}
}

// addInterference creates the interference variables x^{t,o}_{bi→a} with
// the constraint blocks of Eq. 10-19 and their objective terms (Eq. 9).
//
// pruned (may be nil) marks access paths proven dominated by the caller —
// paths on which this contender can inflict no interference, indexed by
// pair index. A pruned path's x variable is pinned to zero, so the ilp
// presolve substitutes it out before the LP is ever built, and its
// bounding rows — vacuous once x is zero, since counts are non-negative —
// are omitted entirely.
func (b *ptacBuilder) addInterference(bi int, na, nb []ilp.Var, rb dsu.Readings, pruned []bool) {
	xs := b.xs[:0]
	for pi, to := range accessPairs {
		hi := ilp.Inf
		if pruned != nil && pruned[pi] {
			hi = 0
		}
		x := b.p.AddInt(xVarName(bi, pi), 0, hi)
		xs = append(xs, x)
		b.p.SetObjective(x, float64(b.interferenceLatency(rb, to)))
		if pruned != nil && pruned[pi] {
			continue
		}

		// Eq. 10-12/14-15/17-18, one pair per (target, op): bounded by
		// the contender's requests of that type and by the analysed
		// task's requests on the target (either type can be delayed).
		terms := append(b.terms[:0], ilp.Term{Var: x, Coeff: 1}, ilp.Term{Var: nb[pi], Coeff: -1})
		b.p.Add(terms, ilp.LE, 0)
		terms = append(terms[:1], b.targetTerms(na, to.Target, -1)...)
		b.terms = terms
		b.p.Add(terms, ilp.LE, 0)
	}
	b.xs = xs
	// Eq. 13/16/19 (and the dfl analogue): cumulative conflicts on a
	// target cannot exceed the analysed task's requests there.
	for _, t := range platform.Targets {
		terms := b.terms[:0]
		for _, pi := range targetPairs[t] {
			if pruned == nil || !pruned[pi] {
				terms = append(terms, ilp.Term{Var: xs[pi], Coeff: 1})
			}
		}
		if len(terms) == 0 {
			b.terms = terms
			continue // every path on this target is dominated
		}
		terms = append(terms, b.targetTerms(na, t, -1)...)
		b.terms = terms
		b.p.Add(terms, ilp.LE, 0)
	}
}

// interferenceLatency is the delay one contender request on (t,o) imposes:
// the maximum transaction latency of Table 2, escalated to the bracketed
// dirty-miss figure on the LMU when the contender demonstrably produces
// dirty misses there (its DMD reading is non-zero).
func (b *ptacBuilder) interferenceLatency(rb dsu.Readings, to platform.TargetOp) int64 {
	if to.Target == platform.LMU && to.Op == platform.Data && rb.DMD > 0 {
		return platform.TC27xLMUDirtyMissLatency
	}
	return b.in.Lat.MaxLatency(to.Target, to.Op)
}

// defaultGap is the default branch & bound optimality gap: one worst-case
// request latency, i.e. the bound may be loose by at most one transaction.
func defaultGap(lat *platform.LatencyTable) float64 {
	var lMax int64
	for _, to := range accessPairs {
		if l := lat.MaxLatency(to.Target, to.Op); l > lMax {
			lMax = l
		}
	}
	return float64(lMax)
}

// targetTerms returns coeff * n^{t,o} terms for every operation type legal
// on target t, from a builder-owned scratch buffer (valid until the next
// call).
func (b *ptacBuilder) targetTerms(vars []ilp.Var, t platform.Target, coeff float64) []ilp.Term {
	terms := b.tgtTerms[:0]
	for _, pi := range targetPairs[t] {
		terms = append(terms, ilp.Term{Var: vars[pi], Coeff: coeff})
	}
	b.tgtTerms = terms
	return terms
}

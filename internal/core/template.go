package core

import (
	"fmt"

	"repro/internal/dsu"
	"repro/internal/ilp"
	"repro/internal/platform"
)

// Template is a resource-usage contract for a contender in the spirit of
// the paper's ref [10] (Fernandez et al., "Resource usage templates and
// signatures for COTS multicore processors"): instead of measuring the
// actual co-runner — which may not exist yet at early design stages — the
// OEM pledges per-target request budgets the future co-runner must respect.
// Feeding a template instead of readings keeps the whole ILP-PTAC workflow
// available before any contender software is written, and the resulting
// bound holds for *every* contender that honours the contract.
type Template struct {
	// Name labels the contract.
	Name string
	// MaxRequests bounds the contender's SRI requests per (target, op)
	// over the analysis window. Absent entries mean zero — the template
	// pledges the contender will not touch that path at all.
	MaxRequests map[platform.TargetOp]int64
}

// Validate rejects contracts with illegal paths or negative budgets.
func (tp Template) Validate() error {
	for to, n := range tp.MaxRequests {
		if !to.Valid() {
			return fmt.Errorf("core: template %s: illegal access path %s", tp.Name, to)
		}
		if n < 0 {
			return fmt.Errorf("core: template %s: negative budget %d for %s", tp.Name, n, to)
		}
	}
	return nil
}

// ILPPTACTemplate computes the ILP-PTAC bound for the analysed task
// against one or more contender templates. The analysed task is
// characterised by its isolation readings exactly as in ILPPTAC; each
// contender's per-target counts are fixed by its contract rather than
// reconstructed from stall counters, so Eq. 22-23 are replaced by direct
// bounds n^{t,o}_b <= MaxRequests[t,o].
func ILPPTACTemplate(a Input, templates []Template, opts PTACOptions) (Estimate, error) {
	// Validate τa's side with a placeholder contender so Input.Validate
	// applies; templates are checked separately.
	probe := a
	probe.B = nil
	if err := probe.Validate(); err != nil {
		return Estimate{}, err
	}
	if len(templates) == 0 {
		return Estimate{}, fmt.Errorf("core: ILP-PTAC-template needs at least one template")
	}
	for _, tp := range templates {
		if err := tp.Validate(); err != nil {
			return Estimate{}, err
		}
	}

	b := newPTACBuilder(a, opts)
	defer b.release()
	b.na = b.addTaskVars(-1, b.na)
	b.addStallConstraints(b.na, a.A)
	b.addTailoring(b.na, a.A)

	// Dominance pre-pruning. A template path (t, o) can inflict no
	// interference — and therefore never needs to reach the LP — when any
	// of three conditions holds: the contract pledges zero requests on it
	// (absent MaxRequests entries mean zero), the deployment pins it
	// (Eq. 10-19's nb bound is zero either way), or the analysed task
	// cannot be delayed on its target because the deployment gives τa no
	// access to t at all (then Eq. 13/16/19 forces x^{t,·} = 0). Pruned
	// paths get their nb and x variables pinned to zero, which the ilp
	// presolve substitutes out before the LP is built.
	var reachable [platform.NumTargets]bool
	for _, to := range accessPairs {
		if a.Scenario.Deploy.MayAccess(to.Target, to.Op) {
			reachable[to.Target] = true
		}
	}

	b.nbAll, b.xsAll = b.nbAll[:0], b.xsAll[:0]
	for bi, tp := range templates {
		nb := b.nb[:0]
		pruned := b.pruned[:0]
		for pi, to := range accessPairs {
			// The contract pins the contender's counts directly; the
			// deployment pin still applies on top.
			hi := float64(tp.MaxRequests[to])
			if !a.Scenario.Deploy.MayAccess(to.Target, to.Op) {
				hi = 0
			}
			prune := hi == 0 || !reachable[to.Target]
			if prune {
				hi = 0
			}
			pruned = append(pruned, prune)
			nb = append(nb, b.p.AddInt(nbVarName(bi, pi), 0, hi))
		}
		b.nb, b.pruned = nb, pruned
		// Templates carry no cacheability split, so the dirty-LMU
		// escalation never triggers (zero readings: DMD = 0); the
		// contract's requests are already charged at full lmax.
		b.addInterference(bi, b.na, nb, dsu.Readings{}, pruned)
		b.nbAll = append(b.nbAll, nb...)
		b.xsAll = append(b.xsAll, b.xs...)
	}

	gap := opts.Gap
	if gap <= 0 {
		gap = defaultGap(a.Lat)
	}
	sol, err := b.p.Solve(ilp.Options{MaxNodes: opts.MaxNodes, Gap: gap, Ctx: opts.Ctx})
	if err != nil {
		return Estimate{}, fmt.Errorf("core: ILP-PTAC-template (%s): %w", a.Scenario.Name, err)
	}

	decomp := make(map[string]int64)
	for pi := range accessPairs {
		decomp[naNames[pi]] = sol.IntOf(b.na[pi])
		for bi := range templates {
			decomp[nbVarName(bi, pi)] = sol.IntOf(b.nbAll[bi*len(accessPairs)+pi])
			decomp[xVarName(bi, pi)] = sol.IntOf(b.xsAll[bi*len(accessPairs)+pi])
		}
	}
	return Estimate{
		Model:            "ILP-PTAC-template",
		IsolationCycles:  a.A.CCNT,
		ContentionCycles: int64(sol.UpperBound + 0.5),
		Decomposition:    decomp,
		Nodes:            sol.Nodes,
		WarmStarts:       sol.WarmStarts,
	}, nil
}

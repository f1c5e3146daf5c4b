package ilp

import (
	"errors"
	"math"
	"testing"
)

type bfConstraint struct {
	coeffs []float64
	sense  Sense
	rhs    float64
}

// bruteForceOpt enumerates every integer point of a box and returns the
// best feasible objective (-Inf when none is feasible), how many points
// attain it, and the first such point in enumeration order (the unique
// optimum when count is 1).
func bruteForceOpt(obj []float64, hi []int, cons []bfConstraint) (best float64, count int, arg []int) {
	n := len(obj)
	point := make([]int, n)
	best = math.Inf(-1)
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			for _, c := range cons {
				var lhs float64
				for j, x := range point {
					lhs += c.coeffs[j] * float64(x)
				}
				switch c.sense {
				case LE:
					if lhs > c.rhs+1e-9 {
						return
					}
				case GE:
					if lhs < c.rhs-1e-9 {
						return
					}
				case EQ:
					if math.Abs(lhs-c.rhs) > 1e-9 {
						return
					}
				}
			}
			var v float64
			for j, x := range point {
				v += obj[j] * float64(x)
			}
			switch {
			case v > best+1e-9:
				best, count = v, 1
				arg = append(arg[:0], point...)
			case v > best-1e-9:
				count++
			}
			return
		}
		for x := 0; x <= hi[i]; x++ {
			point[i] = x
			walk(i + 1)
		}
	}
	walk(0)
	return best, count, arg
}

// solveBox builds the integer program over the box [0, hi] described by
// obj and cons, solves it with o, and returns the solution with its
// variable values in index order.
func solveBox(obj []float64, hi []int, cons []bfConstraint, o Options) (Solution, []float64, error) {
	p := New()
	n := len(obj)
	vars := make([]Var, n)
	for j := 0; j < n; j++ {
		vars[j] = p.AddInt(string(rune('a'+j)), 0, float64(hi[j]))
		p.SetObjective(vars[j], obj[j])
	}
	for _, c := range cons {
		terms := make([]Term, n)
		for j := 0; j < n; j++ {
			terms[j] = Term{vars[j], c.coeffs[j]}
		}
		p.Add(terms, c.sense, c.rhs)
	}
	sol, err := p.Solve(o)
	if err != nil {
		return Solution{}, nil, err
	}
	xs := make([]float64, n)
	for j, v := range vars {
		xs[j] = sol.ValueOf(v)
	}
	return sol, xs, nil
}

// randomBox draws one random instance for the brute-force oracles: n
// variables in [0, 2..5], objective coefficients in [-2, 4], and one to
// three constraints of mixed sense. next returns a pseudo-random integer
// in [0, mod).
func randomBox(n int, next func(mod uint32) int) (obj []float64, hi []int, cons []bfConstraint) {
	hi = make([]int, n)
	obj = make([]float64, n)
	for j := 0; j < n; j++ {
		hi[j] = 2 + next(4)
		obj[j] = float64(next(7)) - 2 // may be negative or zero
	}
	nCons := 1 + next(3)
	for k := 0; k < nCons; k++ {
		c := bfConstraint{coeffs: make([]float64, n)}
		for j := 0; j < n; j++ {
			c.coeffs[j] = float64(next(5)) - 1
		}
		switch next(3) {
		case 0:
			c.sense = LE
			c.rhs = float64(next(15))
		case 1:
			c.sense = GE
			c.rhs = float64(next(6))
		default:
			c.sense = EQ
			c.rhs = float64(next(8))
		}
		cons = append(cons, c)
	}
	return obj, hi, cons
}

// lcg returns a deterministic pseudo-random generator seeded with seed.
func lcg(seed uint32) func(mod uint32) int {
	rnd := seed
	return func(mod uint32) int {
		rnd = rnd*1664525 + 1013904223
		return int(rnd % mod)
	}
}

// TestSolveMatchesBruteForce cross-validates the branch & bound against
// exhaustive enumeration on hundreds of random small instances with mixed
// constraint senses.
func TestSolveMatchesBruteForce(t *testing.T) {
	next := lcg(0x5EED)
	for trial := 0; trial < 300; trial++ {
		obj, hi, cons := randomBox(2+next(2), next) // 2-3 vars
		want, _, _ := bruteForceOpt(obj, hi, cons)
		sol, _, err := solveBox(obj, hi, cons, Options{})

		if math.IsInf(want, -1) {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: brute force says infeasible, solver said %v (obj %v)", trial, err, sol.Objective)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: solver error %v on feasible instance (want %g)", trial, err, want)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: solver %g, brute force %g\nobj=%v hi=%v cons=%+v",
				trial, sol.Objective, want, obj, hi, cons)
		}
		if sol.UpperBound < sol.Objective-1e-9 {
			t.Fatalf("trial %d: upper bound %g below objective %g", trial, sol.UpperBound, sol.Objective)
		}
	}
}

package ilp

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestKnapsack(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c <= 100, 10a+4b+5c <= 600, 2a+2b+6c <= 300.
	// Classic LP opt is fractional; ILP optimum is 1033 at integral point?
	// Use a small instance with a known integral answer instead:
	// max 8x + 11y + 6z + 4w, 5x + 7y + 4z + 3w <= 14, binaries.
	// Optimum: y + z + w = 21 at (0,1,1,1).
	p := New()
	x := p.AddInt("x", 0, 1)
	y := p.AddInt("y", 0, 1)
	z := p.AddInt("z", 0, 1)
	w := p.AddInt("w", 0, 1)
	p.SetObjective(x, 8)
	p.SetObjective(y, 11)
	p.SetObjective(z, 6)
	p.SetObjective(w, 4)
	p.Add([]Term{{x, 5}, {y, 7}, {z, 4}, {w, 3}}, LE, 14)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 21) {
		t.Fatalf("objective = %g, want 21", s.Objective)
	}
	if s.Int("x") != 0 || s.Int("y") != 1 || s.Int("z") != 1 || s.Int("w") != 1 {
		t.Errorf("solution %d %d %d %d, want 0 1 1 1", s.Int("x"), s.Int("y"), s.Int("z"), s.Int("w"))
	}
}

func TestIntegralityMatters(t *testing.T) {
	// max x + y s.t. 2x + 2y <= 5: LP opt 2.5, ILP opt 2.
	p := New()
	x := p.AddInt("x", 0, Inf)
	y := p.AddInt("y", 0, Inf)
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.Add([]Term{{x, 2}, {y, 2}}, LE, 5)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 2) {
		t.Errorf("objective = %g, want 2 (integral)", s.Objective)
	}
}

func TestMixedIntegerReal(t *testing.T) {
	// max x + y, x integer <= 2.5 bound via constraint, y real.
	// x + y <= 3.7, x <= 2.5 => x=2 (int), y=1.7.
	p := New()
	x := p.AddInt("x", 0, Inf)
	y := p.AddReal("y", 0, Inf)
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.Add([]Term{{x, 1}}, LE, 2.5)
	p.Add([]Term{{x, 1}, {y, 1}}, LE, 3.7)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(s.Objective, 3.7) {
		t.Errorf("objective = %g, want 3.7", s.Objective)
	}
	if s.Int("x") != 2 {
		t.Errorf("x = %d, want 2", s.Int("x"))
	}
	if !approx(s.Value("y"), 1.7) {
		t.Errorf("y = %g, want 1.7", s.Value("y"))
	}
}

func TestEqualityAndGE(t *testing.T) {
	// max z s.t. x + y + z = 10, x >= 3, y >= 4 => z = 3.
	p := New()
	x := p.AddInt("x", 0, Inf)
	y := p.AddInt("y", 0, Inf)
	z := p.AddInt("z", 0, Inf)
	p.SetObjective(z, 1)
	p.Add([]Term{{x, 1}, {y, 1}, {z, 1}}, EQ, 10)
	p.Add([]Term{{x, 1}}, GE, 3)
	p.Add([]Term{{y, 1}}, GE, 4)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Int("z") != 3 {
		t.Errorf("z = %d, want 3", s.Int("z"))
	}
}

func TestInfeasible(t *testing.T) {
	p := New()
	x := p.AddInt("x", 0, 5)
	p.Add([]Term{{x, 1}}, GE, 10)
	if _, err := p.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestIntegerInfeasibleButLPFeasible(t *testing.T) {
	// 2x = 1 has the LP solution x=0.5 but no integer solution.
	p := New()
	x := p.AddInt("x", 0, 10)
	p.SetObjective(x, 1)
	p.Add([]Term{{x, 2}}, EQ, 1)
	if _, err := p.Solve(Options{}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestUnbounded(t *testing.T) {
	p := New()
	x := p.AddInt("x", 0, Inf)
	p.SetObjective(x, 1)
	if _, err := p.Solve(Options{}); !errors.Is(err, ErrUnbounded) {
		t.Errorf("err = %v, want ErrUnbounded", err)
	}
}

func TestNodeLimit(t *testing.T) {
	// A problem needing several nodes with MaxNodes=1 must error.
	p := New()
	x := p.AddInt("x", 0, Inf)
	y := p.AddInt("y", 0, Inf)
	p.SetObjective(x, 1)
	p.SetObjective(y, 1)
	p.Add([]Term{{x, 2}, {y, 2}}, LE, 5)
	if _, err := p.Solve(Options{MaxNodes: 1}); !errors.Is(err, ErrNodeLimit) {
		t.Errorf("err = %v, want ErrNodeLimit", err)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"empty name":   func() { New().AddInt("", 0, 1) },
		"dup name":     func() { p := New(); p.AddInt("a", 0, 1); p.AddInt("a", 0, 1) },
		"empty bounds": func() { New().AddInt("a", 5, 2) },
		"unknown value": func() {
			p := New()
			p.AddInt("a", 0, 1)
			s, _ := p.Solve(Options{})
			s.Value("b")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestVarName(t *testing.T) {
	p := New()
	v := p.AddInt("count", 0, 1)
	if v.Name() != "count" {
		t.Errorf("Name = %q", v.Name())
	}
	if p.NumVars() != 1 {
		t.Errorf("NumVars = %d", p.NumVars())
	}
}

func TestFixedVariables(t *testing.T) {
	p := New()
	x := p.AddInt("x", 7, 7)
	y := p.AddInt("y", 0, Inf)
	p.SetObjective(y, 1)
	p.Add([]Term{{x, 1}, {y, 1}}, LE, 10)
	s, err := p.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Int("x") != 7 || s.Int("y") != 3 {
		t.Errorf("x=%d y=%d, want 7, 3", s.Int("x"), s.Int("y"))
	}
}

// Property: for max x s.t. x <= b (real b), the ILP answer is floor(b).
func TestFloorProperty(t *testing.T) {
	f := func(raw uint16) bool {
		b := float64(raw%1000) / 7.0
		p := New()
		x := p.AddInt("x", 0, Inf)
		p.SetObjective(x, 1)
		p.Add([]Term{{x, 1}}, LE, b)
		s, err := p.Solve(Options{})
		return err == nil && s.Int("x") == int64(math.Floor(b+1e-9))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the ILP optimum never exceeds the LP relaxation optimum and the
// solution satisfies all constraints.
func TestRelaxationDominanceProperty(t *testing.T) {
	f := func(seed uint32) bool {
		rnd := seed
		next := func(mod uint32) float64 {
			rnd = rnd*1664525 + 1013904223
			return float64(rnd % mod)
		}
		p := New()
		vars := make([]Var, 3)
		objs := make([]float64, 3)
		for i := range vars {
			vars[i] = p.AddInt(string(rune('a'+i)), 0, Inf)
			objs[i] = next(5) + 1
			p.SetObjective(vars[i], objs[i])
		}
		type con struct {
			coeffs []float64
			rhs    float64
		}
		var cons []con
		for i := 0; i < 2; i++ {
			coeffs := []float64{next(4) + 1, next(4) + 1, next(4) + 1}
			rhs := next(50)
			p.Add([]Term{{vars[0], coeffs[0]}, {vars[1], coeffs[1]}, {vars[2], coeffs[2]}}, LE, rhs)
			cons = append(cons, con{coeffs, rhs})
		}
		s, err := p.Solve(Options{})
		if err != nil {
			return false
		}
		// Feasibility.
		for _, c := range cons {
			var lhs float64
			for i, v := range vars {
				lhs += c.coeffs[i] * s.Value(v.Name())
			}
			if lhs > c.rhs+1e-6 {
				return false
			}
		}
		// Integrality.
		for _, v := range vars {
			x := s.Value(v.Name())
			if math.Abs(x-math.Round(x)) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSolveMatchesBruteForceOracle checks Solve against exhaustive
// enumeration on 100 random instances: status and objective must match
// brute force, the proved upper bound must equal the objective of the
// completed search, and when brute force proves the optimum unique the
// solution vector must be exactly that point.
func TestSolveMatchesBruteForceOracle(t *testing.T) {
	next := lcg(0xD15EED)
	feasible, unique := 0, 0
	for trial := 0; trial < 100; trial++ {
		obj, hi, cons := randomBox(2+next(3), next) // 2-4 vars
		want, optima, arg := bruteForceOpt(obj, hi, cons)
		sol, xs, err := solveBox(obj, hi, cons, Options{})

		if math.IsInf(want, -1) {
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: want ErrInfeasible, got %v", trial, err)
			}
			continue
		}
		feasible++
		if err != nil {
			t.Fatalf("trial %d: unexpected error %v", trial, err)
		}
		if math.Abs(sol.Objective-want) > 1e-6 {
			t.Fatalf("trial %d: objective %g, brute force %g\nobj=%v hi=%v cons=%+v",
				trial, sol.Objective, want, obj, hi, cons)
		}
		if !approx(sol.UpperBound, sol.Objective) {
			t.Fatalf("trial %d: completed search reports upper bound %g, objective %g",
				trial, sol.UpperBound, sol.Objective)
		}
		if optima == 1 {
			unique++
			for j, x := range arg {
				if xs[j] != float64(x) {
					t.Fatalf("trial %d: unique optimum %v, solver returned %v", trial, arg, xs)
				}
			}
		}
	}
	if feasible < 30 || unique < 10 {
		t.Fatalf("generator drift: only %d feasible / %d unique-optimum trials", feasible, unique)
	}
}

// plateauProblem builds a deliberately symmetric instance — maximize
// sum(x) under sum(2x) <= 2k+1 — whose optimum k is attained by many
// vectors, so exact search must enumerate a wide equal-objective plateau.
func plateauProblem(n, k int) *Problem {
	p := New()
	terms := make([]Term, n)
	for j := range terms {
		v := p.AddInt(string(rune('a'+j)), 0, float64(k))
		p.SetObjective(v, 1)
		terms[j] = Term{v, 2}
	}
	p.Add(terms, LE, float64(2*k+1))
	return p
}

// TestGapUpperBound: a gap-stopped search leaves nodes open, but its
// proved bound must stay sound — floor(rootBound) for integral objectives.
func TestGapUpperBound(t *testing.T) {
	const n, k = 6, 7
	sol, err := plateauProblem(n, k).Solve(Options{Gap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Objective != float64(k) {
		t.Fatalf("objective %g, want %d", sol.Objective, k)
	}
	// Root LP bound is k+0.5; the floored proof is exactly k.
	if sol.UpperBound != float64(k) {
		t.Fatalf("upper bound %g, want %d", sol.UpperBound, k)
	}
}

package repro

import (
	"testing"

	"repro/internal/core"
)

// TestTable5Bounds pins the ILP-PTAC contention bounds that
// BenchmarkTable5Tailoring reports as bound_cycles, to the cycle: a solver
// or model change that moves either one fails here.
func TestTable5Bounds(t *testing.T) {
	for _, tc := range []struct {
		sc   core.Scenario
		want int64
	}{
		{core.Scenario1(), 20500},
		{core.Scenario2(), 22981},
	} {
		est, err := core.ILPPTAC(table5Input(tc.sc), core.PTACOptions{})
		if err != nil {
			t.Fatalf("%s: %v", tc.sc.Name, err)
		}
		if est.ContentionCycles != tc.want {
			t.Errorf("%s: contention bound %d cycles, want %d", tc.sc.Name, est.ContentionCycles, tc.want)
		}
	}
}

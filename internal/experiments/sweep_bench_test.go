package experiments

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/campaign"
)

// benchGrid is a 2x3x3 = 18-cell grid: large enough that pool scheduling
// dominates fixed costs, and every dimension of the expanded sweep is
// exercised.
var benchGrid = Grid{
	AppIterations: 150,
	Perturbations: []Perturbation{
		{},
		ScaleLatencies("slow10", 110, 100),
		ScaleLatencies("slow25", 125, 100),
	},
}

// poolWidths are the worker counts the campaign benchmarks compare:
// serial, and the machine's full width when it has one.
func poolWidths() []int {
	widths := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		widths = append(widths, n)
	}
	return widths
}

// BenchmarkSweep measures campaign wall-clock against pool width. Each
// iteration gets a fresh engine so the memo cache cannot carry results
// across iterations: the serial/parallel comparison is pure scheduling.
func BenchmarkSweep(b *testing.B) {
	for _, workers := range poolWidths() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := NewRunner(campaign.New(workers))
				points, err := r.Sweep(context.Background(), lat, benchGrid)
				if err != nil {
					b.Fatal(err)
				}
				if len(points) != benchGrid.Size() {
					b.Fatalf("%d points, want %d", len(points), benchGrid.Size())
				}
			}
		})
	}
}

// BenchmarkSweepMemoized measures the steady-state cost of re-sweeping on
// a warm engine — the regime an interactive OEM exploration session runs
// in, where only the model evaluations remain.
func BenchmarkSweepMemoized(b *testing.B) {
	r := NewRunner(campaign.New(0))
	if _, err := r.Sweep(context.Background(), lat, benchGrid); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Sweep(context.Background(), lat, benchGrid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure4 measures the co-scheduled campaign against pool width.
func BenchmarkFigure4(b *testing.B) {
	for _, workers := range poolWidths() {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := NewRunner(campaign.New(workers))
				if _, err := r.Figure4(context.Background(), lat); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

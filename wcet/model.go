package wcet

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// ContentionModel is the plugin interface of the SDK: anything that can
// bound the multicore contention of one analysed task from an Input.
//
// Name returns the model's canonical registry name (lowerCamelCase, e.g.
// "ilpPtac"); it is how callers select the model in Analyzer requests, in
// the /v2 service API and in experiment grids. Estimate computes the
// bound. Implementations must be safe for concurrent use: the Analyzer
// evaluates one request's models one after another, but the service and
// the experiment sweeps invoke them from many requests at once. Estimate
// should honour ctx cancellation: built-in models check it on entry, and
// the ILP models stop their search on it (an error, never a bound).
type ContentionModel interface {
	Name() string
	Estimate(ctx context.Context, in Input) (Estimate, error)
}

// modelFunc adapts a function to ContentionModel.
type modelFunc struct {
	name string
	fn   func(ctx context.Context, in Input) (Estimate, error)
}

func (m modelFunc) Name() string { return m.name }

func (m modelFunc) Estimate(ctx context.Context, in Input) (Estimate, error) {
	if err := ctx.Err(); err != nil {
		return Estimate{}, err
	}
	return m.fn(ctx, in)
}

// NewModel adapts a plain estimate function into a ContentionModel — the
// cheapest way to register a custom bound.
func NewModel(name string, fn func(ctx context.Context, in Input) (Estimate, error)) ContentionModel {
	return modelFunc{name: name, fn: fn}
}

// Built-in model adapters. They translate the SDK Input onto the
// underlying free functions; registration happens in NewDefaultRegistry.

func ftcModel() ContentionModel {
	return NewModel("ftc", func(_ context.Context, in Input) (Estimate, error) {
		return core.FTC(in.coreInput())
	})
}

func ilpPtacModel() ContentionModel {
	return NewModel("ilpPtac", func(ctx context.Context, in Input) (Estimate, error) {
		return core.ILPPTAC(in.coreInput(), in.ptacOptions(ctx))
	})
}

func ftcFsbModel() ContentionModel {
	return NewModel("ftcFsb", func(_ context.Context, in Input) (Estimate, error) {
		return core.FTCFSB(in.coreInput())
	})
}

func templatePtacModel() ContentionModel {
	return NewModel("templatePtac", func(ctx context.Context, in Input) (Estimate, error) {
		if len(in.Templates) == 0 {
			return Estimate{}, fmt.Errorf("wcet: model templatePtac needs at least one contender template in Input.Templates")
		}
		return core.ILPPTACTemplate(in.coreInput(), in.Templates, in.ptacOptions(ctx))
	})
}

func idealModel() ContentionModel {
	return NewModel("ideal", func(_ context.Context, in Input) (Estimate, error) {
		if in.AnalysedPTAC == nil || len(in.ContenderPTACs) == 0 {
			return Estimate{}, fmt.Errorf("wcet: model ideal needs exact per-target access counts (Input.AnalysedPTAC and Input.ContenderPTACs)")
		}
		// Round-robin arbitration lets each contender delay each analysed
		// request once, so per-contender worst cases sum.
		var delta int64
		for _, nb := range in.ContenderPTACs {
			delta += core.Ideal(in.AnalysedPTAC, nb, in.Latencies)
		}
		return Estimate{
			Model:            "ideal",
			IsolationCycles:  in.Analysed.CCNT,
			ContentionCycles: delta,
		}, nil
	})
}

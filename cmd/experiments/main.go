// Command experiments regenerates every table and figure of the paper's
// evaluation section on the simulated TC27x and prints them side by side
// with the published values. All artefacts run on one shared campaign
// engine, so isolation baselines are measured once per process no matter
// how many artefacts reuse them.
//
// Usage:
//
//	experiments                    # everything
//	experiments -only table2       # one artefact: table2, table3, table5,
//	                               # table6, figure4, sweep
//	experiments -workers 1         # serial campaign (default: all cores)
//	experiments -only sweep -perturb slow10:+10,fast10:-10
//	                               # sweep extra latency-table variants
//	experiments -only sweep -models ftc,ftcFsb,ilpPtac
//	                               # sweep any registered contention models
//	experiments -only sweep -store ./tables -tables tc27x/default,tc27x/respin
//	                               # sweep stored latency-table versions
//	experiments -stats             # campaign engine counters on exit
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/tabstore"
	"repro/internal/workload"
	"repro/wcet"
)

func main() {
	only := flag.String("only", "", "regenerate a single artefact: table2, table3, table5, table6, figure4, sweep")
	workers := flag.Int("workers", 0, "campaign worker-pool width; 0 means all cores")
	perturb := flag.String("perturb", "", "extra sweep latency perturbations, comma-separated name:±pct (e.g. slow10:+10,fast10:-10)")
	models := flag.String("models", "", "sweep these registered contention models, comma-separated (default ilpPtac,ftc)")
	tables := flag.String("tables", "", "sweep these stored latency-table versions (refs or IDs from -store), comma-separated")
	storeDir := flag.String("store", "", "table store directory resolving -tables")
	jsonOut := flag.String("json", "", `write the sweep artefact as deterministic JSON to this file ("-" = stdout) — byte-identical to a wcetd campaign artifact for the same grid`)
	appIters := flag.Int("app-iterations", experiments.AppIterations, "analysed application iterations per sweep cell")
	stats := flag.Bool("stats", false, "print campaign engine counters on exit")
	flag.Parse()

	perts, err := parsePerturbations(*perturb)
	if err != nil {
		fail(err)
	}
	if *perturb != "" && *only != "" && *only != "sweep" {
		fail(fmt.Errorf("-perturb only applies to the sweep artefact, not %q", *only))
	}
	if *models != "" && *only != "" && *only != "sweep" {
		fail(fmt.Errorf("-models only applies to the sweep artefact, not %q", *only))
	}
	if *tables != "" && *only != "" && *only != "sweep" {
		fail(fmt.Errorf("-tables only applies to the sweep artefact, not %q", *only))
	}
	if *jsonOut != "" && *only != "sweep" {
		fail(fmt.Errorf("-json only applies to the sweep artefact; run with -only sweep"))
	}
	var tableList []string
	if *tables != "" {
		if *storeDir == "" {
			fail(fmt.Errorf("-tables requires -store"))
		}
		for _, tb := range strings.Split(*tables, ",") {
			if tb = strings.TrimSpace(tb); tb != "" {
				tableList = append(tableList, tb)
			}
		}
	}
	var store *tabstore.Store
	if *storeDir != "" {
		if store, err = tabstore.Open(*storeDir); err != nil {
			fail(err)
		}
	}
	var modelList []string
	if *models != "" {
		for _, m := range strings.Split(*models, ",") {
			if m = strings.TrimSpace(m); m != "" {
				modelList = append(modelList, m)
			}
		}
	}

	ctx := context.Background()
	runner := experiments.NewRunner(campaign.New(*workers))
	lat := platform.TC27xLatencies()
	artefacts := map[string]func(context.Context, experiments.Runner, platform.LatencyTable) error{
		"table2":  table2,
		"table3":  table3,
		"table5":  table5,
		"table6":  table6,
		"figure4": figure4,
		"sweep":   sweepArtefact(perts, modelList, tableList, store, *appIters, *jsonOut),
	}
	run := func(name string) {
		if err := artefacts[name](ctx, runner, lat); err != nil {
			fail(err)
		}
	}
	if *only != "" {
		if _, ok := artefacts[*only]; !ok {
			fail(fmt.Errorf("unknown artefact %q", *only))
		}
		run(*only)
	} else {
		for _, name := range []string{"table2", "table3", "table5", "table6", "figure4", "sweep"} {
			run(name)
			fmt.Println()
		}
	}
	if *stats {
		s := runner.Engine().Stats()
		fmt.Printf("campaign: %d workers, %d sim runs, %d isolation memo hits / %d misses\n",
			runner.Engine().Workers(), s.SimRuns, s.IsolationHits, s.IsolationMisses)
	}
}

// parsePerturbations turns "slow10:+10,fast10:-10" into scale
// perturbations; the unperturbed base table is always swept first.
func parsePerturbations(spec string) ([]experiments.Perturbation, error) {
	perts := []experiments.Perturbation{{}}
	if spec == "" {
		return perts, nil
	}
	seen := map[string]bool{"base": true} // "base" labels the unperturbed table in the output
	for _, item := range strings.Split(spec, ",") {
		name, pctStr, ok := strings.Cut(item, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("perturbation %q: want name:±pct", item)
		}
		if seen[name] {
			return nil, fmt.Errorf("perturbation %q: name %q already taken", item, name)
		}
		seen[name] = true
		pct, err := strconv.ParseInt(strings.TrimPrefix(pctStr, "+"), 10, 64)
		if err != nil || pct <= -100 || pct > 1000 {
			return nil, fmt.Errorf("perturbation %q: percentage must be in (-100, 1000], got %q", item, pctStr)
		}
		perts = append(perts, experiments.ScaleLatencies(name, 100+pct, 100))
	}
	return perts, nil
}

func table2(ctx context.Context, r experiments.Runner, lat platform.LatencyTable) error {
	rows, err := r.CalibrateTable2(ctx, lat)
	if err != nil {
		return err
	}
	fmt.Println("== Table 2: per-target latency and minimum stall cycles ==")
	fmt.Printf("%-8s %10s %10s %10s %10s\n", "target", "lmax(co)", "lmax(da)", "cs(co)", "cs(da)")
	for _, r := range rows {
		fmt.Printf("%-8s %10s %10s %10s %10s\n", r.Target, dash(r.LCo), dash(r.LDa), dash(r.CsCo), dash(r.CsDa))
	}
	fmt.Println("paper:   lmu 11/11 cs 11/10 | pf 16/16 cs 6/11 | dfl -/43 cs -/42")
	return nil
}

func table3(context.Context, experiments.Runner, platform.LatencyTable) error {
	fmt.Println("== Table 3: architectural constraints on code/data placement ==")
	fmt.Printf("%-10s %-6s %-6s %-6s %-6s\n", "", "pf0", "pf1", "dfl", "lmu")
	for _, row := range []struct {
		name      string
		op        platform.Op
		cacheable bool
	}{
		{"code $", platform.Code, true},
		{"code n$", platform.Code, false},
		{"data $", platform.Data, true},
		{"data n$", platform.Data, false},
	} {
		fmt.Printf("%-10s", row.name)
		for _, t := range platform.Targets {
			mark := "ok"
			if err := platform.ValidatePlacement(row.op, platform.Placement{Target: t, Cacheable: row.cacheable}); err != nil {
				mark = "no"
			}
			fmt.Printf(" %-6s", mark)
		}
		fmt.Println()
	}
	return nil
}

func table5(context.Context, experiments.Runner, platform.LatencyTable) error {
	fmt.Println("== Table 5: ILP-PTAC tailoring per scenario ==")
	for _, sc := range []wcet.Scenario{wcet.Scenario1(), wcet.Scenario2()} {
		fmt.Printf("%s: deploy=%v\n", sc.Name, sc.Deploy)
		fmt.Printf("  pinned to zero:")
		for _, to := range platform.AccessPairs() {
			if !sc.Deploy.MayAccess(to.Target, to.Op) {
				fmt.Printf(" n[%s]=0", to)
			}
		}
		fmt.Println()
		if sc.CodeCountExact {
			fmt.Println("  sum of code PTACs = PCACHE_MISS (exact)")
		}
		if sc.CacheableDataFloor {
			fmt.Println("  sum of data PTACs >= DCACHE_MISS_CLEAN + DCACHE_MISS_DIRTY")
		}
	}
	return nil
}

func table6(ctx context.Context, r experiments.Runner, lat platform.LatencyTable) error {
	fmt.Println("== Table 6: debug-counter readings (app on core 1, H-Load on core 2) ==")
	fmt.Printf("%-4s %-7s %10s %8s %8s %10s %10s\n", "", "", "PM", "DMC", "DMD", "PS", "DS")
	for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
		app, cont, err := r.Table6Readings(ctx, lat, sc)
		if err != nil {
			return err
		}
		fmt.Printf("Sc%-3d %-6s %10d %8d %8d %10d %10d\n", sc, "Core1", app.PM, app.DMC, app.DMD, app.PS, app.DS)
		fmt.Printf("%-4s %-6s %10d %8d %8d %10d %10d\n", "", "Core2", cont.PM, cont.DMC, cont.DMD, cont.PS, cont.DS)
	}
	fmt.Println("paper shape: DMD = 0 everywhere; DMC = 0 in Sc1, > 0 in Sc2")
	return nil
}

func figure4(ctx context.Context, r experiments.Runner, lat platform.LatencyTable) error {
	rows, err := r.Figure4(ctx, lat)
	if err != nil {
		return err
	}
	fmt.Println("== Figure 4: model predictions w.r.t. execution in isolation ==")
	fmt.Printf("%-4s %-8s %10s %10s %10s %10s\n", "", "", "observed", "ILP-PTAC", "fTC", "true wait")
	for _, r := range rows {
		fmt.Printf("Sc%-3d %-8s %9.3fx %9.3fx %9.3fx %10d\n",
			r.Scenario, r.Level, r.ObservedRatio(), r.ILP.Ratio(), r.FTC.Ratio(), r.TrueContention)
	}
	fmt.Println()
	for _, ref := range experiments.PaperFigure4Values {
		fmt.Printf("paper Sc%d: ILP %.2f-%.2f (L to H), fTC %.2f\n", ref.Scenario, ref.ILPLow, ref.ILPHigh, ref.FTC)
	}
	return nil
}

func sweepArtefact(perts []experiments.Perturbation, models, tables []string, store *tabstore.Store, appIters int, jsonOut string) func(context.Context, experiments.Runner, platform.LatencyTable) error {
	return func(ctx context.Context, r experiments.Runner, lat platform.LatencyTable) error {
		points, err := r.Sweep(ctx, lat, experiments.Grid{
			AppIterations: appIters,
			Perturbations: perts,
			Models:        models,
			Tables:        tables,
			Store:         store,
		})
		if err != nil {
			return err
		}
		if jsonOut != "" {
			// The artifact encoding is shared with the jobs subsystem, so
			// this file is byte-identical to what wcetd serves for the
			// same grid over the same base table.
			data, err := experiments.EncodeArtifact(experiments.WirePoints(points))
			if err != nil {
				return err
			}
			if jsonOut == "-" {
				_, err = os.Stdout.Write(data)
			} else {
				err = os.WriteFile(jsonOut, data, 0o644)
			}
			if err != nil {
				return err
			}
			if jsonOut != "-" {
				fmt.Printf("sweep artefact written to %s\n", jsonOut)
			}
			return nil
		}
		fmt.Println("== Design-space sweep (pre-integration, isolation measurements only) ==")
		fmt.Printf("%-10s %-10s %-8s %12s", "platform", "deploy", "co-load", "isolation")
		// The sweep is generic over the model registry: one WCET column
		// per model the grid evaluated (the default grid prints the
		// paper's ILP-PTAC and fTC pair).
		if len(points) > 0 {
			for _, e := range points[0].Estimates {
				fmt.Printf(" %12s", e.Name+" WCET")
			}
		}
		fmt.Println()
		for _, p := range points {
			name := p.Perturbation
			if name == "" {
				name = "base"
			}
			// Stored-table cells carry the ref; perturbations stack on top.
			if p.Table != "" {
				if p.Perturbation == "" {
					name = p.Table
				} else {
					name = p.Table + "+" + p.Perturbation
				}
			}
			fmt.Printf("%-10s scenario%-2d %-8s %12d", name, p.Scenario, p.Level, p.IsolationCycles)
			for _, e := range p.Estimates {
				fmt.Printf(" %12d", e.WCET())
			}
			fmt.Println()
		}
		return nil
	}
}

func dash(v int64) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprintf("%d", v)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/dsu"
	"repro/internal/experiments"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/tricore"
	"repro/internal/workload"
)

// figure4Ref holds the Figure 4 rows exactly as `experiments -only
// figure4` prints them (observed, ILP-PTAC and fTC ratios, true wait).
//
//go:embed reference/figure4.txt
var figure4Ref string

var statsRE = regexp.MustCompile(`campaign: (\d+) workers, (\d+) sim runs, (\d+) isolation memo hits / (\d+) misses`)

// formatRow renders a Figure 4 row with cmd/experiments' format.
func formatRow(r experiments.Figure4Row) string {
	return fmt.Sprintf("Sc%-3d %-8s %9.3fx %9.3fx %9.3fx %10d",
		r.Scenario, r.Level, r.ObservedRatio(), r.ILP.Ratio(), r.FTC.Ratio(), r.TrueContention)
}

// tableRows extracts the Figure 4 table rows from the command's output.
func tableRows(out []byte) []string {
	var rows []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "Sc") {
			rows = append(rows, sc.Text())
		}
	}
	return rows
}

func sameRows(got, want []string) bool {
	return strings.Join(got, "\n") == strings.Join(want, "\n")
}

// runFigure4 regenerates Figure 4 with a fresh cmd/experiments process per
// regeneration — the cost a researcher or CI pays, co-runs and ILP solves
// included. The inputs are the paper's fixed evaluation, so the seed only
// enters the provenance line.
func runFigure4(b *bench) error {
	ref := strings.Split(strings.TrimSpace(figure4Ref), "\n")
	args := []string{"-only", "figure4", "-workers", strconv.Itoa(b.nproc), "-stats"}
	b.digest = digestOf([]byte(strings.Join(args, " ")), []byte(figure4Ref))

	// Set-up: start-up of the same command on its cheapest artefact.
	var setup []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		if err := exec.Command(filepath.Join(b.bin, "experiments"), "-only", "table3").Run(); err != nil {
			return fmt.Errorf("experiments -only table3: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	b.metrics["setup_s"] = median(setup)

	if b.traced {
		return b.figure4Traced(ref, args)
	}

	var walls, rss []float64
	start := time.Now()
	for time.Since(start) < b.dur {
		cmd := exec.Command(filepath.Join(b.bin, "experiments"), args...)
		t0 := time.Now()
		out, err := cmd.Output()
		wall := time.Since(t0)
		b.attempted++
		if err != nil {
			b.fail("experiments -only figure4: %v", err)
			continue
		}
		walls = append(walls, wall.Seconds())
		rss = append(rss, peakRSSMB(cmd.ProcessState))
		if got := tableRows(out); !sameRows(got, ref) {
			b.fail("figure4 table differs from the reference:\n%s", strings.Join(got, "\n"))
		}
	}
	elapsed := time.Since(start)

	// The CLI prints ratios only; check the cycle-level soundness claim
	// and the paper deviation on an in-process regeneration, which must
	// print the same rows.
	rows, err := experiments.NewRunner(campaign.New(b.nproc)).Figure4(context.Background(), platform.TC27xLatencies())
	if err != nil {
		return err
	}
	b.checkRows(rows, ref, "in-process Figure4")

	b.metrics["peak_rss_mb"] = median(rss)
	b.metrics["lat_p50_ms"] = 1000 * median(walls)
	b.metrics["lat_p90_ms"] = 1000 * quantile(walls, 0.9)
	b.metrics["ops_per_s"] = float64(len(walls)) / elapsed.Seconds()
	b.named["regen_s_p50"] = median(walls)
	b.named["paper_err_pct"] = paperErrPct(rows)
	fmt.Printf("samples regenerations=%d\n", len(walls))
	return nil
}

// checkRows counts one operation: rows must print as the reference, and
// every ILP-PTAC bound must dominate the simulator's true contention.
func (b *bench) checkRows(rows []experiments.Figure4Row, ref []string, what string) {
	b.attempted++
	got := make([]string, len(rows))
	for i, r := range rows {
		got[i] = formatRow(r)
		if r.ILP.ContentionCycles < r.TrueContention {
			b.fail("%s: Sc%d %s ILP-PTAC bound %d below true wait %d", what, r.Scenario, r.Level, r.ILP.ContentionCycles, r.TrueContention)
			return
		}
	}
	if !sameRows(got, ref) {
		b.fail("%s rows differ from the reference:\n%s", what, strings.Join(got, "\n"))
	}
}

// paperErrPct is the largest relative deviation of the reproduced ILP-PTAC
// (at L- and H-Load) and fTC ratios from the paper's Figure 4 values.
func paperErrPct(rows []experiments.Figure4Row) float64 {
	var worst float64
	dev := func(got, want float64) {
		worst = math.Max(worst, 100*math.Abs(got-want)/want)
	}
	for _, p := range experiments.PaperFigure4Values {
		for _, r := range rows {
			if r.Scenario != p.Scenario {
				continue
			}
			dev(r.FTC.Ratio(), p.FTC)
			switch r.Level {
			case workload.LLoad:
				dev(r.ILP.Ratio(), p.ILPLow)
			case workload.HLoad:
				dev(r.ILP.Ratio(), p.ILPHigh)
			}
		}
	}
	return worst
}

// replayStats is one replay pass's per-layer time and simulated counts.
type replayStats struct {
	gen, iso, corun, ilp, ftc time.Duration
	cycles, grants, waits     int64
	stalls                    int64
	nodes, warm               int
}

// replayFigure4 regenerates Figure 4 through the layers' public functions
// in the order cmd/experiments runs them — per scenario one application
// isolation run, per load one contender sizing and isolation run, the two
// model solves and the co-run — timing each call when timed is set.
func replayFigure4(lat platform.LatencyTable, timed bool) ([]experiments.Figure4Row, replayStats, error) {
	var st replayStats
	now := func() time.Time {
		if timed {
			return time.Now()
		}
		return time.Time{}
	}
	lap := func(acc *time.Duration, t0 time.Time) {
		if timed {
			*acc += time.Since(t0)
		}
	}
	count := func(res sim.Result) {
		st.cycles += res.Cycles
		for _, per := range res.PTAC {
			for _, n := range per {
				st.grants += n
			}
		}
		for _, per := range res.WaitCycles {
			for _, n := range per {
				st.waits += n
			}
		}
		for _, r := range res.Readings {
			st.stalls += r.PS + r.DS
		}
	}
	app := func(sc workload.Scenario) (sim.Task, error) {
		t0 := now()
		src, err := workload.ControlLoop(workload.AppConfig{Scenario: sc, Core: experiments.AnalysedCore, Iterations: experiments.AppIterations})
		lap(&st.gen, t0)
		return sim.Task{Kind: tricore.TC16P, Src: src}, err
	}
	contender := func(sc workload.Scenario, lv workload.Level, bursts int) (sim.Task, error) {
		t0 := now()
		src, err := workload.Contender(workload.ContenderConfig{Level: lv, Scenario: sc, Core: experiments.ContenderCore, Bursts: bursts})
		lap(&st.gen, t0)
		return sim.Task{Kind: tricore.TC16P, Src: src}, err
	}

	var rows []experiments.Figure4Row
	for _, sc := range []workload.Scenario{workload.Scenario1, workload.Scenario2} {
		modelSc := core.Scenario1()
		if sc == workload.Scenario2 {
			modelSc = core.Scenario2()
		}
		task, err := app(sc)
		if err != nil {
			return nil, st, err
		}
		t0 := now()
		appRes, err := sim.RunIsolation(lat, experiments.AnalysedCore, task, sim.Config{})
		lap(&st.iso, t0)
		if err != nil {
			return nil, st, err
		}
		count(appRes)
		appR := appRes.Readings[experiments.AnalysedCore]
		for _, lv := range workload.Levels {
			nCo, nDa := core.AccessBounds(appR, &lat)
			bursts := int(lv.LoadFraction()*float64(nCo+nDa))/lv.AccessesPerBurst() + 1
			ctask, err := contender(sc, lv, bursts)
			if err != nil {
				return nil, st, err
			}
			t0 := now()
			contRes, err := sim.RunIsolation(lat, experiments.ContenderCore, ctask, sim.Config{})
			lap(&st.iso, t0)
			if err != nil {
				return nil, st, err
			}
			count(contRes)

			in := core.Input{A: appR, B: []dsu.Readings{contRes.Readings[experiments.ContenderCore]}, Lat: &lat, Scenario: modelSc}
			t0 = now()
			ilpEst, err := core.ILPPTAC(in, core.PTACOptions{})
			lap(&st.ilp, t0)
			if err != nil {
				return nil, st, err
			}
			st.nodes += ilpEst.Nodes
			st.warm += ilpEst.WarmStarts
			t0 = now()
			ftcEst, err := core.FTC(in)
			lap(&st.ftc, t0)
			if err != nil {
				return nil, st, err
			}

			// A trace source runs once: rebuild both for the co-run.
			atask, err := app(sc)
			if err != nil {
				return nil, st, err
			}
			ctask, err = contender(sc, lv, bursts)
			if err != nil {
				return nil, st, err
			}
			t0 = now()
			multi, err := sim.Run(lat, map[int]sim.Task{experiments.AnalysedCore: atask, experiments.ContenderCore: ctask}, experiments.AnalysedCore, sim.Config{})
			lap(&st.corun, t0)
			if err != nil {
				return nil, st, err
			}
			count(multi)
			rows = append(rows, experiments.Figure4Row{
				Scenario:        sc,
				Level:           lv,
				IsolationCycles: appR.CCNT,
				ObservedCycles:  multi.Cycles,
				FTC:             ftcEst,
				ILP:             ilpEst,
				TrueContention:  multi.TotalWait(experiments.AnalysedCore),
			})
		}
	}
	return rows, st, nil
}

// figure4Traced is the traced figure4 run: one CLI regeneration for the
// campaign engine's counters, untimed replay passes for a third of the
// run, then timed replay passes under a CPU profile for the rest.
func (b *bench) figure4Traced(ref []string, args []string) error {
	out, err := exec.Command(filepath.Join(b.bin, "experiments"), args...).Output()
	b.attempted++
	if err != nil {
		return fmt.Errorf("experiments -only figure4: %w", err)
	}
	if got := tableRows(out); !sameRows(got, ref) {
		b.fail("figure4 table differs from the reference:\n%s", strings.Join(got, "\n"))
	}
	m := statsRE.FindSubmatch(out)
	if m == nil {
		return fmt.Errorf("experiments -stats printed no campaign counters")
	}
	simRuns, _ := strconv.Atoi(string(m[2]))
	memoHits, _ := strconv.Atoi(string(m[3]))
	memoMisses, _ := strconv.Atoi(string(m[4]))
	b.metrics["campaign.sim_runs"] = float64(simRuns)
	b.metrics["campaign.memo_hits"] = float64(memoHits)
	b.metrics["campaign.memo_hit_rate"] = float64(memoHits) / float64(max(memoHits+memoMisses, 1))

	lat := platform.TC27xLatencies()
	pass := func(timed bool) (replayStats, time.Duration, error) {
		t0 := time.Now()
		rows, st, err := replayFigure4(lat, timed)
		wall := time.Since(t0)
		if err != nil {
			return st, wall, err
		}
		b.checkRows(rows, ref, "traced replay")
		return st, wall, nil
	}

	var plain []float64
	start := time.Now()
	for len(plain) < 2 || time.Since(start) < b.dur/3 {
		_, wall, err := pass(false)
		if err != nil {
			return err
		}
		plain = append(plain, durMs(wall))
	}

	profPath := filepath.Join(b.work, "figure4.cpu.pprof")
	pf, err := os.Create(profPath)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	var walls, gen, iso, corun, ilp, ftc []float64
	var last replayStats
	start = time.Now()
	for len(walls) < 2 || time.Since(start) < b.dur*2/3 {
		st, wall, err := pass(true)
		if err != nil {
			pprof.StopCPUProfile()
			pf.Close()
			return err
		}
		walls = append(walls, durMs(wall))
		gen = append(gen, durMs(st.gen))
		iso = append(iso, durMs(st.iso))
		corun = append(corun, durMs(st.corun))
		ilp = append(ilp, durMs(st.ilp))
		ftc = append(ftc, durMs(st.ftc))
		last = st
	}
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}

	b.metrics["workload.gen_ms"] = median(gen)
	b.metrics["sim.isolation_ms"] = median(iso)
	b.metrics["sim.corun_ms"] = median(corun)
	b.metrics["core.ilp_ms"] = median(ilp)
	b.metrics["core.ftc_ms"] = median(ftc)
	b.metrics["sim.cycles"] = float64(last.cycles)
	b.metrics["sim.ns_per_cycle"] = 1e6 * (median(iso) + median(corun)) / float64(last.cycles)
	b.metrics["sri.grants"] = float64(last.grants)
	b.metrics["sri.wait_cycles"] = float64(last.waits)
	b.metrics["dsu.stall_cycles"] = float64(last.stalls)
	b.metrics["ilp.nodes"] = float64(last.nodes)
	b.metrics["ilp.warm_start_rate"] = float64(last.warm) / float64(max(last.nodes, 1))
	b.metrics["trace_overhead_pct"] = 100 * (median(walls)/median(plain) - 1)
	// Means: the timed calls partition each pass, and means add.
	b.metrics["reconciled_pct"] = b.reconcile("figure4 replay pass mean (ms)", mean(walls), map[string]float64{
		"workload.gen": mean(gen), "sim.isolation": mean(iso), "sim.corun": mean(corun),
		"core.ilp": mean(ilp), "core.ftc": mean(ftc),
	})
	fmt.Printf("samples plain_passes=%d traced_passes=%d\n", len(plain), len(walls))

	shares, err := profileShares(profPath)
	if err != nil {
		return err
	}
	for k, v := range shares {
		b.metrics[k] = v
	}
	return nil
}

// profileShares reads the replay's CPU profile with `go tool pprof` and
// returns the cumulative shares of the SRI and core tick functions within
// sim.Run, and the remainder (the simulator loop itself).
func profileShares(path string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-cum", "-nodecount=100000", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	cum := map[string]time.Duration{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[4], "%") {
			continue
		}
		d, err := time.ParseDuration(f[3])
		if err != nil {
			continue
		}
		cum[f[5]] += d
	}
	run := cum["repro/internal/sim.Run"]
	if run == 0 {
		return nil, fmt.Errorf("CPU profile has no samples in sim.Run")
	}
	sri := 100 * float64(cum["repro/internal/sri.(*Interconnect).Tick"]) / float64(run)
	cores := 100 * float64(cum["repro/internal/tricore.(*Core).Tick"]+cum["repro/internal/tricore.(*Core).Complete"]) / float64(run)
	return map[string]float64{
		"sri.tick_pct":     sri,
		"tricore.tick_pct": cores,
		"sim.loop_pct":     100 - sri - cores,
	}, nil
}

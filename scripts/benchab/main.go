// Command benchab judges a same-machine A/B of the repository benchmark:
//
//	go run ./scripts/benchab BENCHMARK.json bench-ab.jsonl
//
// The results file is what scripts/bench_ab.sh writes: one perfbench
// result line per run, tagged with side (base or head), workload, seed and
// trace. The verdict is a pure function of the two files. It judges each
// BENCHMARK.json workload the file holds runs of, so a follow-up A/B of
// one workload is judged by the same rules; scripts/bench_ab.sh requires
// every workload before it calls benchab. The A/B fails (exit 1) when
//
//   - an end_to_end metric's head median is worse than the base median by
//     more than the metric's bound and head is worse in every seed pair
//     (a median beyond the bound with a pair won is only "unresolved");
//   - a head run reports correct: false;
//   - head's failed ÷ attempted share on a workload exceeds base's;
//   - the traced figure4 run's simulated counters differ from base, or
//     its ilp.nodes rose. These are last-pass counts over fixed inputs,
//     so they are exact.
//
// Incomplete input fails too: a workload the file holds with different
// seeds on the two sides, a metric missing, figure4 without its traced
// runs, a workload BENCHMARK.json does not declare, or no runs at all.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the verdict reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is one tagged perfbench result line.
type run struct {
	Side     string `json:"side"`
	Workload string `json:"workload"`
	Seed     int    `json:"seed"`
	Trace    int    `json:"trace"`
	Result   struct {
		Correct   bool  `json:"correct"`
		Attempted int64 `json:"attempted"`
		Failed    int64 `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchab BENCHMARK.json results.jsonl")
		os.Exit(2)
	}
	specData, err := os.ReadFile(os.Args[1])
	if err != nil {
		fatal(err)
	}
	results, err := os.ReadFile(os.Args[2])
	if err != nil {
		fatal(err)
	}
	pass, err := judge(specData, results, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !pass {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchab:", err)
	os.Exit(1)
}

// judge prints one row per check and reports whether the A/B passes. An
// error means the input is malformed or incomplete.
func judge(specData, results []byte, w io.Writer) (bool, error) {
	var sp spec
	if err := json.Unmarshal(specData, &sp); err != nil {
		return false, fmt.Errorf("benchmark spec: %w", err)
	}
	for _, m := range sp.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			return false, fmt.Errorf("end_to_end %s: want better lower|higher and a positive bound", m.Name)
		}
	}

	// untraced[side][workload][seed]; traced[side] is the figure4 trace run.
	untraced := map[string]map[string]map[int]*run{"base": {}, "head": {}}
	traced := map[string]*run{}
	declared, present := map[string]bool{}, map[string]bool{}
	for _, wl := range sp.Workloads {
		declared[wl.Name] = true
	}
	var all []*run
	sc := bufio.NewScanner(bytes.NewReader(results))
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		r := new(run)
		if err := json.Unmarshal(sc.Bytes(), r); err != nil {
			return false, fmt.Errorf("results line %d: %w", n, err)
		}
		bySide, ok := untraced[r.Side]
		if !ok {
			return false, fmt.Errorf("results line %d: side %q, want base or head", n, r.Side)
		}
		if !declared[r.Workload] {
			return false, fmt.Errorf("results line %d: workload %q is not in the benchmark spec", n, r.Workload)
		}
		present[r.Workload] = true
		all = append(all, r)
		if r.Trace == 1 {
			if r.Workload == "figure4" {
				traced[r.Side] = r
			}
			continue
		}
		if bySide[r.Workload] == nil {
			bySide[r.Workload] = map[int]*run{}
		}
		if bySide[r.Workload][r.Seed] != nil {
			return false, fmt.Errorf("results line %d: second %s %s seed %d run", n, r.Side, r.Workload, r.Seed)
		}
		bySide[r.Workload][r.Seed] = r
	}
	if err := sc.Err(); err != nil {
		return false, err
	}
	if len(all) == 0 {
		return false, fmt.Errorf("no runs in the results file")
	}

	pass := true
	fmt.Fprintf(w, "%-9s %-16s %12s %12s %9s %5s  %s\n", "workload", "metric", "base", "head", "head/base", "won", "verdict")
	for _, r := range all {
		if r.Side == "head" && !r.Result.Correct {
			fmt.Fprintf(w, "%-9s head seed %d trace %d reported correct: false  FAIL\n", r.Workload, r.Seed, r.Trace)
			pass = false
		}
	}
	for _, wl := range sp.Workloads {
		if !present[wl.Name] {
			fmt.Fprintf(w, "%-9s no runs in the results file, not judged\n", wl.Name)
			continue
		}
		base, head := untraced["base"][wl.Name], untraced["head"][wl.Name]
		seeds := make([]int, 0, len(base))
		for s := range base {
			if head[s] == nil {
				return false, fmt.Errorf("%s seed %d: no head run", wl.Name, s)
			}
			seeds = append(seeds, s)
		}
		if len(seeds) == 0 || len(head) != len(base) {
			return false, fmt.Errorf("%s: want the same seeds on both sides, have base %d head %d runs", wl.Name, len(base), len(head))
		}
		sort.Ints(seeds)
		for _, m := range sp.EndToEnd {
			var bv, hv []float64
			lost, won := 0, 0
			for _, s := range seeds {
				b, okb := base[s].Result.Metrics[m.Name]
				h, okh := head[s].Result.Metrics[m.Name]
				if !okb || !okh {
					return false, fmt.Errorf("%s seed %d: %s missing", wl.Name, s, m.Name)
				}
				bv, hv = append(bv, b.Value), append(hv, h.Value)
				switch d := worse(m, h.Value, b.Value); {
				case d > 0:
					lost++
				case d < 0:
					won++
				}
			}
			bm, hm := median(bv), median(hv)
			verdict := "ok"
			if worse(m, hm, bm) > m.Bound {
				verdict = "unresolved"
				if lost == len(seeds) {
					verdict, pass = "FAIL", false
				}
			}
			fmt.Fprintf(w, "%-9s %-16s %12.4g %12.4g %9.3f %2d/%-2d  %s\n", wl.Name, m.Name, bm, hm, hm/bm, won, len(seeds), verdict)
		}
		bs, hs := failedShare(all, "base", wl.Name), failedShare(all, "head", wl.Name)
		verdict := "ok"
		if hs > bs {
			verdict, pass = "FAIL", false
		}
		fmt.Fprintf(w, "%-9s %-16s %12.4g %12.4g %9s %5s  %s\n", wl.Name, "failed_share", bs, hs, "", "", verdict)
	}

	if present["figure4"] {
		ok, err := judgeCounters(traced["base"], traced["head"], w)
		if err != nil {
			return false, err
		}
		pass = pass && ok
	}

	if pass {
		fmt.Fprintln(w, "benchab: PASS")
	} else {
		fmt.Fprintln(w, "benchab: FAIL")
	}
	return pass, nil
}

// judgeCounters compares the traced figure4 runs: the simulated counts
// must be equal, and ilp.nodes may fall but not rise.
func judgeCounters(tb, th *run, w io.Writer) (bool, error) {
	if tb == nil || th == nil {
		return false, fmt.Errorf("want one traced figure4 run per side")
	}
	pass := true
	for _, c := range []string{"sim.cycles", "sri.grants", "sri.wait_cycles", "dsu.stall_cycles", "ilp.nodes"} {
		b, okb := tb.Result.Metrics[c]
		h, okh := th.Result.Metrics[c]
		if !okb || !okh {
			return false, fmt.Errorf("traced figure4: %s missing", c)
		}
		verdict := "ok"
		if (c == "ilp.nodes" && h.Value > b.Value) || (c != "ilp.nodes" && h.Value != b.Value) {
			verdict, pass = "FAIL", false
		}
		fmt.Fprintf(w, "%-9s %-16s %12.0f %12.0f %9.3f %5s  %s\n", "figure4", c, b.Value, h.Value, h.Value/b.Value, "", verdict)
	}
	return pass, nil
}

// worse returns how much worse head is than base as a fraction of base,
// in the metric's direction: positive is worse, negative better.
func worse(m metricSpec, head, base float64) float64 {
	d := head - base
	if m.Better == "higher" {
		d = -d
	}
	if d > 0 && base == 0 {
		return math.Inf(1)
	}
	if d == 0 {
		return 0
	}
	return d / math.Abs(base)
}

// failedShare is failed ÷ attempted over every run of one side and workload.
func failedShare(all []*run, side, workload string) float64 {
	var attempted, failed int64
	for _, r := range all {
		if r.Side == side && r.Workload == workload {
			attempted += r.Result.Attempted
			failed += r.Result.Failed
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

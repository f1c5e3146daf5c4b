package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// testSpec gates one workload on one lower- and one higher-is-better
// metric, both with BENCHMARK.json's timing bound.
const testSpec = `{
  "workloads": [{"name": "figure4"}],
  "end_to_end": [
    {"name": "lat_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25}
  ]
}`

// line is one result line before encoding.
type line struct {
	workload  string // "" is figure4
	side      string
	seed      int
	trace     int
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
}

// fixture is a complete, identical A/B: three seed pairs of figure4 and
// one traced run per side.
func fixture() []*line {
	var ls []*line
	for _, side := range []string{"base", "head"} {
		for seed := 1; seed <= 3; seed++ {
			ls = append(ls, &line{side: side, seed: seed, correct: true, attempted: 100,
				metrics: map[string]float64{"lat_p50_ms": 100, "ops_per_s": 10}})
		}
		ls = append(ls, &line{side: side, seed: 1, trace: 1, correct: true, attempted: 50,
			metrics: map[string]float64{"sim.cycles": 5e6, "sri.grants": 4e4, "sri.wait_cycles": 9e4, "dsu.stall_cycles": 2e5, "ilp.nodes": 27295}})
	}
	return ls
}

func encode(t *testing.T, ls []*line) []byte {
	t.Helper()
	var b strings.Builder
	for _, l := range ls {
		metrics := map[string]map[string]float64{}
		for k, v := range l.metrics {
			metrics[k] = map[string]float64{"value": v}
		}
		wl := l.workload
		if wl == "" {
			wl = "figure4"
		}
		data, err := json.Marshal(map[string]any{
			"side": l.side, "workload": wl, "seed": l.seed, "trace": l.trace,
			"result": map[string]any{"correct": l.correct, "attempted": l.attempted, "failed": l.failed, "metrics": metrics},
		})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(data)
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// set changes one metric on the untraced runs of side, one value per seed.
func set(ls []*line, side, metric string, perSeed ...float64) {
	for _, l := range ls {
		if l.side == side && l.trace == 0 {
			l.metrics[metric] = perSeed[l.seed-1]
		}
	}
}

// traced returns side's traced run.
func traced(ls []*line, side string) *line {
	for _, l := range ls {
		if l.side == side && l.trace == 1 {
			return l
		}
	}
	return nil
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func([]*line)
		pass bool
		want string // a substring of the verdict table
	}{
		{"identical", func([]*line) {}, true, "benchab: PASS"},
		{"within-bound slowdown", func(ls []*line) {
			set(ls, "head", "lat_p50_ms", 120, 124, 118)
		}, true, "lat_p50_ms                100          120     1.200  0/3   ok"},
		{"beyond-bound slowdown losing every pair", func(ls []*line) {
			set(ls, "head", "lat_p50_ms", 140, 135, 150)
		}, false, "lat_p50_ms                100          140     1.400  0/3   FAIL"},
		{"beyond-bound median with one pair won", func(ls []*line) {
			set(ls, "base", "lat_p50_ms", 100, 100, 200)
			set(ls, "head", "lat_p50_ms", 140, 135, 150)
		}, true, "1/3   unresolved"},
		{"higher-is-better drop losing every pair", func(ls []*line) {
			set(ls, "head", "ops_per_s", 7, 7.2, 7.4)
		}, false, "ops_per_s                  10          7.2     0.720  0/3   FAIL"},
		{"higher-is-better rise", func(ls []*line) {
			set(ls, "head", "ops_per_s", 20, 21, 22)
		}, true, "ops_per_s                  10           21     2.100  3/3   ok"},
		{"higher failed share", func(ls []*line) {
			ls[5].failed = 1
		}, false, "failed_share"},
		{"lower failed share", func(ls []*line) {
			ls[0].failed = 2
			ls[4].failed = 1
		}, true, "benchab: PASS"},
		{"head correct false", func(ls []*line) {
			traced(ls, "head").correct = false
		}, false, "figure4   head seed 1 trace 1 reported correct: false  FAIL"},
		{"base correct false", func(ls []*line) {
			ls[1].correct = false
		}, true, "benchab: PASS"},
		{"sim.cycles mismatch", func(ls []*line) {
			traced(ls, "head").metrics["sim.cycles"]++
		}, false, "sim.cycles            5000000      5000001     1.000        FAIL"},
		{"dsu.stall_cycles mismatch", func(ls []*line) {
			traced(ls, "head").metrics["dsu.stall_cycles"]--
		}, false, "dsu.stall_cycles"},
		{"ilp.nodes falls", func(ls []*line) {
			traced(ls, "head").metrics["ilp.nodes"] = 3
		}, true, "ilp.nodes               27295            3     0.000        ok"},
		{"ilp.nodes rises", func(ls []*line) {
			traced(ls, "head").metrics["ilp.nodes"]++
		}, false, "ilp.nodes               27295        27296     1.000        FAIL"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls := fixture()
			tc.edit(ls)
			var out strings.Builder
			pass, err := judge([]byte(testSpec), encode(t, ls), &out)
			if err != nil {
				t.Fatal(err)
			}
			if pass != tc.pass || !strings.Contains(out.String(), tc.want) {
				t.Errorf("pass = %t, want %t; want %q in\n%s", pass, tc.pass, tc.want, out.String())
			}
		})
	}
}

func TestJudgeIncompleteInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func([]*line) []*line
		want string
	}{
		{"head seed missing", func(ls []*line) []*line { return append(ls[:4], ls[5:]...) }, "figure4 seed 1: no head run"},
		{"base seed missing", func(ls []*line) []*line { return ls[1:] }, "want the same seeds"},
		{"metric missing", func(ls []*line) []*line { delete(ls[2].metrics, "ops_per_s"); return ls }, "ops_per_s missing"},
		{"traced run missing", func(ls []*line) []*line { return ls[:7] }, "one traced figure4 run per side"},
		{"counter missing", func(ls []*line) []*line { delete(traced(ls, "base").metrics, "sri.grants"); return ls }, "sri.grants missing"},
		{"duplicate run", func(ls []*line) []*line { return append(ls, ls[0]) }, "second base figure4 seed 1 run"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := judge([]byte(testSpec), encode(t, tc.edit(fixture())), &strings.Builder{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestBenchmarkSpec loads the repository's BENCHMARK.json: every
// end_to_end metric the gate reads needs a direction and a bound.
func TestBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		t.Fatalf("no workloads or end_to_end metrics in BENCHMARK.json")
	}
	for _, m := range sp.EndToEnd {
		if (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 {
			t.Errorf("end_to_end %s: better %q bound %v", m.Name, m.Better, m.Bound)
		}
	}
}

// twoWorkloadSpec declares figure4 and campaign with testSpec's metrics.
const twoWorkloadSpec = `{
  "workloads": [{"name": "figure4"}, {"name": "campaign"}],
  "end_to_end": [
    {"name": "lat_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.25}
  ]
}`

// campaignOnly is a follow-up A/B of one workload: three campaign seed
// pairs and no figure4 runs, traced or not.
func campaignOnly() []*line {
	var ls []*line
	for _, l := range fixture() {
		if l.trace == 0 {
			l.workload = "campaign"
			ls = append(ls, l)
		}
	}
	return ls
}

// TestJudgeWorkloadSubset judges a file holding one of the declared
// workloads: the absent one is reported as not judged, and the present
// one keeps every rule.
func TestJudgeWorkloadSubset(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func([]*line)
		pass bool
		want []string
	}{
		{"identical", func([]*line) {}, true, []string{
			"figure4   no runs in the results file, not judged",
			"campaign  lat_p50_ms                100          100     1.000  0/3   ok",
			"benchab: PASS",
		}},
		{"beyond-bound slowdown losing every pair", func(ls []*line) {
			set(ls, "head", "lat_p50_ms", 140, 135, 150)
		}, false, []string{"campaign  lat_p50_ms                100          140     1.400  0/3   FAIL"}},
		{"higher failed share", func(ls []*line) {
			ls[4].failed = 1
		}, false, []string{"campaign  failed_share"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ls := campaignOnly()
			tc.edit(ls)
			var out strings.Builder
			pass, err := judge([]byte(twoWorkloadSpec), encode(t, ls), &out)
			if err != nil {
				t.Fatal(err)
			}
			if pass != tc.pass {
				t.Errorf("pass = %t, want %t in\n%s", pass, tc.pass, out.String())
			}
			for _, want := range tc.want {
				if !strings.Contains(out.String(), want) {
					t.Errorf("want %q in\n%s", want, out.String())
				}
			}
		})
	}

	for _, tc := range []struct {
		name string
		ls   []*line
		want string
	}{
		{"head seed missing", campaignOnly()[:5], "campaign seed 3: no head run"},
		{"figure4 traced runs alone", append(campaignOnly(), traced(fixture(), "base"), traced(fixture(), "head")),
			"figure4: want the same seeds on both sides, have base 0 head 0 runs"},
		{"undeclared workload", func() []*line {
			ls := campaignOnly()
			ls[0].workload = "serve"
			return ls
		}(), `workload "serve" is not in the benchmark spec`},
		{"no runs", nil, "no runs in the results file"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := judge([]byte(twoWorkloadSpec), encode(t, tc.ls), &strings.Builder{})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

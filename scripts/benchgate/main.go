// Command benchgate parses `go test -bench` output into the repository's
// BENCH_<pr>.json trajectory format and gates the current run against the
// last committed trajectory point. scripts/bench_gate.sh drives both modes
// and is the one harness every committed BENCH file is produced by, so a
// diff between two trajectory points is always apples to apples.
//
// Usage:
//
//	benchgate parse -in raw.txt -out bench.json [-pr N] [-count C] [-benchtime D]
//	benchgate gate -current bench.json [-dir .]
//
// parse aggregates repeated samples of each benchmark (the -count runs)
// into p50/p99 ns/op plus the median of allocs/op, B/op, and every custom
// metric (bound_cycles, nodes, ...). CPU-count suffixes ("-8") are
// stripped from benchmark names so trajectory points from machines with
// different core counts stay comparable.
//
// gate finds the highest-numbered BENCH_*.json in -dir and fails (exit 1)
// when the current run regresses a shared benchmark's cold-solve p50
// ns/op — or its allocs/op, which is machine-independent and therefore
// catches real regressions even on noisy runners — by more than the
// threshold. BENCH_GATE_THRESHOLD configures the threshold: values below 1
// are fractions ("0.15"), values 1 and above are percent ("15", the
// default).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Bench is one benchmark's aggregated trajectory entry.
type Bench struct {
	Samples  int                `json:"samples"`
	P50NsOp  float64            `json:"p50_ns_op"`
	P99NsOp  float64            `json:"p99_ns_op"`
	AllocsOp float64            `json:"allocs_op,omitempty"`
	BytesOp  float64            `json:"bytes_op,omitempty"`
	Metrics  map[string]float64 `json:"metrics,omitempty"`
}

// File is the BENCH_<pr>.json schema.
type File struct {
	Schema    int    `json:"schema"`
	PR        int    `json:"pr,omitempty"`
	Go        string `json:"go"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	Count     int    `json:"count"`
	Benchtime string `json:"benchtime,omitempty"`
	// Notes carries free-form provenance (e.g. the pre-change baseline a
	// trajectory point was measured against).
	Notes      []string         `json:"notes,omitempty"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	if len(os.Args) < 2 {
		fatalf("usage: benchgate parse|gate [flags]")
	}
	switch os.Args[1] {
	case "parse":
		cmdParse(os.Args[2:])
	case "gate":
		cmdGate(os.Args[2:])
	default:
		fatalf("benchgate: unknown command %q (want parse or gate)", os.Args[1])
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}

// benchLine matches one result line of -bench output:
//
//	BenchmarkTable5Tailoring/scenario1-8  123  10523 ns/op  2617 B/op  13 allocs/op  20500 bound_cycles ...
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

func cmdParse(args []string) {
	fs := flag.NewFlagSet("parse", flag.ExitOnError)
	in := fs.String("in", "", "raw `go test -bench` output (default stdin)")
	out := fs.String("out", "", "output JSON path (default stdout)")
	pr := fs.Int("pr", 0, "PR number to record (0 omits it)")
	count := fs.Int("count", 0, "-count the run used (recorded for provenance)")
	benchtime := fs.String("benchtime", "", "-benchtime the run used (recorded for provenance)")
	note := fs.String("note", "", "free-form provenance note")
	fs.Parse(args)

	var raw []byte
	var err error
	if *in == "" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(*in)
	}
	if err != nil {
		fatalf("benchgate: reading input: %v", err)
	}

	samples := map[string][]map[string]float64{}
	var order []string
	for _, line := range strings.Split(string(raw), "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := m[1]
		vals := map[string]float64{}
		fields := strings.Fields(m[3])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			vals[fields[i+1]] = v
		}
		if _, ok := vals["ns/op"]; !ok {
			continue
		}
		if _, seen := samples[name]; !seen {
			order = append(order, name)
		}
		samples[name] = append(samples[name], vals)
	}
	if len(samples) == 0 {
		fatalf("benchgate: no benchmark results found in input")
	}

	f := File{
		Schema:     1,
		PR:         *pr,
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Count:      *count,
		Benchtime:  *benchtime,
		Benchmarks: map[string]Bench{},
	}
	if *note != "" {
		f.Notes = []string{*note}
	}
	for _, name := range order {
		runs := samples[name]
		b := Bench{
			Samples: len(runs),
			P50NsOp: quantile(collect(runs, "ns/op"), 0.50),
			P99NsOp: quantile(collect(runs, "ns/op"), 0.99),
		}
		if a := collect(runs, "allocs/op"); len(a) > 0 {
			b.AllocsOp = quantile(a, 0.50)
		}
		if by := collect(runs, "B/op"); len(by) > 0 {
			b.BytesOp = quantile(by, 0.50)
		}
		for unit := range runs[0] {
			switch unit {
			case "ns/op", "allocs/op", "B/op", "MB/s":
				continue
			}
			if b.Metrics == nil {
				b.Metrics = map[string]float64{}
			}
			b.Metrics[unit] = quantile(collect(runs, unit), 0.50)
		}
		f.Benchmarks[name] = b
	}

	enc, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatalf("benchgate: %v", err)
	}
	fmt.Printf("benchgate: wrote %s (%d benchmarks, %d samples each)\n", *out, len(f.Benchmarks), len(samples[order[0]]))
}

func collect(runs []map[string]float64, unit string) []float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r[unit]; ok {
			xs = append(xs, v)
		}
	}
	return xs
}

// quantile returns the q-quantile of xs via the nearest-rank method; with
// the usual five samples p50 is the median and p99 the maximum.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// benchFile matches committed trajectory points (BENCH_6.json, ...).
var benchFile = regexp.MustCompile(`^BENCH_(\d+)\.json$`)

func cmdGate(args []string) {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	current := fs.String("current", "", "JSON of the current run (required)")
	dir := fs.String("dir", ".", "directory holding committed BENCH_*.json files")
	fs.Parse(args)
	if *current == "" {
		fatalf("benchgate gate: -current is required")
	}

	threshold := 0.15
	if env := os.Getenv("BENCH_GATE_THRESHOLD"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil || v <= 0 {
			fatalf("benchgate: bad BENCH_GATE_THRESHOLD %q", env)
		}
		if v >= 1 {
			v /= 100
		}
		threshold = v
	}

	cur, err := loadFile(*current)
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	ref, refPath, err := latestCommitted(*dir, *current)
	if err != nil {
		fatalf("benchgate: %v", err)
	}
	if ref == nil {
		fmt.Printf("benchgate: no committed BENCH_*.json in %s — nothing to gate against (first trajectory point)\n", *dir)
		return
	}

	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := ref.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fatalf("benchgate: %s and %s share no benchmarks", *current, refPath)
	}

	var failures []string
	fmt.Printf("benchgate: gating %s against %s (threshold %.0f%%)\n", *current, refPath, threshold*100)
	for _, name := range names {
		c, r := cur.Benchmarks[name], ref.Benchmarks[name]
		verdict := "ok"
		if c.P50NsOp > r.P50NsOp*(1+threshold) {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: cold-solve p50 %.0f ns/op vs committed %.0f (+%.1f%%)",
				name, c.P50NsOp, r.P50NsOp, 100*(c.P50NsOp/r.P50NsOp-1)))
		}
		// allocs/op is deterministic per build, so it gates at the same
		// threshold but is immune to machine noise: a regression here is
		// always real.
		if r.AllocsOp > 0 && c.AllocsOp > r.AllocsOp*(1+threshold) {
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f allocs/op vs committed %.0f",
				name, c.AllocsOp, r.AllocsOp))
		}
		// Rate metrics ("*_rate": cache_hit_rate, warm_start_rate, ...)
		// are effectiveness fractions, so they gate in the opposite
		// direction: the run fails when the current rate falls more than
		// the threshold below the committed one. Ratios like ilp_x are
		// reproduced paper values, not effectiveness — informational.
		for unit, rv := range r.Metrics {
			if !strings.HasSuffix(unit, "_rate") || rv <= 0 {
				continue
			}
			cv, ok := c.Metrics[unit]
			if !ok {
				continue
			}
			if cv < rv*(1-threshold) {
				verdict = "REGRESSION"
				failures = append(failures, fmt.Sprintf("%s: %s %.3f vs committed %.3f (-%.1f%%)",
					name, unit, cv, rv, 100*(1-cv/rv)))
			}
		}
		fmt.Printf("  %-55s p50 %12.0f ns/op  (ref %12.0f)  allocs %6.0f (ref %6.0f)  %s\n",
			name, c.P50NsOp, r.P50NsOp, c.AllocsOp, r.AllocsOp, verdict)
	}
	if len(failures) > 0 {
		fmt.Fprintln(os.Stderr, "benchgate: FAIL")
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "  "+f)
		}
		fmt.Fprintf(os.Stderr, "  (threshold %.0f%%; tune with BENCH_GATE_THRESHOLD — see docs/BENCHMARKING.md)\n", threshold*100)
		os.Exit(1)
	}
	fmt.Println("benchgate: PASS")
}

func loadFile(path string) (*File, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// latestCommitted returns the highest-numbered BENCH_<n>.json in dir,
// skipping the file being gated (so re-gating a fresh BENCH_7.json in a
// working tree that already contains it compares against BENCH_6.json).
func latestCommitted(dir, current string) (*File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	curAbs, _ := filepath.Abs(current)
	best, bestN := "", -1
	for _, e := range entries {
		m := benchFile.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		p := filepath.Join(dir, e.Name())
		if abs, _ := filepath.Abs(p); abs == curAbs {
			continue
		}
		n, _ := strconv.Atoi(m[1])
		if n > bestN {
			best, bestN = p, n
		}
	}
	if bestN < 0 {
		return nil, "", nil
	}
	f, err := loadFile(best)
	return f, best, err
}

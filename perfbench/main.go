// Command perfbench is the repository's end-to-end benchmark. It drives
// cmd/experiments and cmd/wcetd as their users run them, checks every
// output against a committed or in-process reference, and prints one JSON
// result line last. perfbench/run.sh builds the programs and runs it:
//
//	bash perfbench/run.sh --workload figure4|serve|campaign --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics; --trace 1 is a separate
// traced run that reports per-layer metrics, timed by this program
// around calls into each layer's public functions (the programs under
// test carry no extra instrumentation). README.md lists the workloads,
// the metrics and which end-to-end metric each layer metric should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics a --trace 0 run reports for every workload;
// perLayer names those a --trace 1 run reports. Both lists mirror
// BENCHMARK.json.
var endToEnd = []string{"setup_s", "peak_rss_mb", "lat_p50_ms", "lat_p90_ms", "ops_per_s"}

var perLayer = []string{
	// figure4 replay
	"workload.gen_ms", "sim.isolation_ms", "sim.corun_ms", "core.ilp_ms", "core.ftc_ms",
	"sri.tick_pct", "tricore.tick_pct", "sim.loop_pct", "sim.cycles", "sim.ns_per_cycle",
	"sri.grants", "sri.wait_cycles", "dsu.stall_cycles", "ilp.nodes",
	// serve spans and replays
	"service.transport_us", "service.decode_us", "service.canon_us", "service.cache_us",
	"service.admission_us", "service.dispatch_us", "service.evaluate_us", "service.encode_us",
	"wcet.validate_us", "wcet.model_ilpPtac_us", "wcet.model_ftc_us",
	"ilp.nodes_p50", "ilp.nodes_max", "ilp.warm_start_rate",
	"service.cache_hit_rate", "service.cache_evictions", "service.conns_opened",
	// campaign job events and counters
	"jobs.submit_ms", "jobs.first_event_ms", "jobs.cell_gap_us", "jobs.finish_ms", "jobs.artifact_ms", "jobs.storage_ms",
	"jobs.cells_solved", "campaign.memo_hit_rate", "campaign.memo_hits", "campaign.sim_runs", "campaign.bg_yields",
	// every workload
	"trace_overhead_pct", "reconciled_pct",
}

// units gives each reported metric its unit.
var units = map[string]string{
	"setup_s": "s", "peak_rss_mb": "MB", "lat_p50_ms": "ms", "lat_p90_ms": "ms", "ops_per_s": "1/s",
	"workload.gen_ms": "ms", "sim.isolation_ms": "ms", "sim.corun_ms": "ms", "core.ilp_ms": "ms", "core.ftc_ms": "ms",
	"sri.tick_pct": "%", "tricore.tick_pct": "%", "sim.loop_pct": "%", "sim.cycles": "count", "sim.ns_per_cycle": "ns",
	"sri.grants": "count", "sri.wait_cycles": "count", "dsu.stall_cycles": "count", "ilp.nodes": "count",
	"service.transport_us": "us", "service.decode_us": "us", "service.canon_us": "us", "service.cache_us": "us",
	"service.admission_us": "us", "service.dispatch_us": "us", "service.evaluate_us": "us", "service.encode_us": "us",
	"wcet.validate_us": "us", "wcet.model_ilpPtac_us": "us", "wcet.model_ftc_us": "us",
	"ilp.nodes_p50": "count", "ilp.nodes_max": "count", "ilp.warm_start_rate": "ratio",
	"service.cache_hit_rate": "ratio", "service.cache_evictions": "count", "service.conns_opened": "count",
	"jobs.submit_ms": "ms", "jobs.first_event_ms": "ms", "jobs.cell_gap_us": "us", "jobs.finish_ms": "ms", "jobs.artifact_ms": "ms", "jobs.storage_ms": "ms",
	"jobs.cells_solved": "count", "campaign.memo_hit_rate": "ratio", "campaign.memo_hits": "count",
	"campaign.sim_runs": "count", "campaign.bg_yields": "count",
	"trace_overhead_pct": "%", "reconciled_pct": "%",
	// Reported by name in the human-readable lines only.
	"error_rate": "ratio", "regen_s_p50": "s", "paper_err_pct": "%", "req_per_s": "1/s",
	"hit_p50_us": "us", "hit_p99_us": "us", "miss_p50_us": "us", "miss_p99_us": "us",
	"job_ms_p50": "ms", "job_ms_p99": "ms", "interactive_p50_us": "us", "interactive_p99_us": "us",
}

// bench is one invocation's configuration and report.
type bench struct {
	seed   int64
	dur    time.Duration
	traced bool
	bin    string // directory holding the built experiments and wcetd
	work   string // private scratch directory, removed on exit
	nproc  int

	attempted, failed int64
	// failures describes the first few failed operations.
	failures []string
	metrics  map[string]float64
	// named are the per-class end-to-end metrics, printed by name only.
	named  map[string]float64
	digest string
}

// fail records one failed operation.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.failures) < 5 {
		b.failures = append(b.failures, fmt.Sprintf(format, args...))
	}
}

func main() {
	wl := flag.String("workload", "", "figure4, serve or campaign")
	seed := flag.Int64("seed", 1, "input seed: the same seed generates the same inputs")
	seconds := flag.Int("seconds", 10, "measured duration in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced variant that reports per-layer metrics")
	binDir := flag.String("bin", ".bench_build/bin", "directory holding the experiments and wcetd binaries")
	workRoot := flag.String("work", ".bench_build", "directory for scratch data")
	flag.Parse()

	if *seconds < 1 {
		die(fmt.Errorf("--seconds must be at least 1"))
	}
	for _, name := range []string{"experiments", "wcetd"} {
		if _, err := os.Stat(filepath.Join(*binDir, name)); err != nil {
			die(fmt.Errorf("missing program under test: %w", err))
		}
	}
	work, err := os.MkdirTemp(*workRoot, "run-")
	if err != nil {
		die(err)
	}
	work, _ = filepath.Abs(work)
	bin, _ := filepath.Abs(*binDir)
	b := &bench{
		seed:    *seed,
		dur:     time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		bin:     bin,
		work:    work,
		nproc:   runtime.NumCPU(),
		metrics: map[string]float64{},
		named:   map[string]float64{},
	}

	run := map[string]func(*bench) error{
		"figure4":  runFigure4,
		"serve":    runServe,
		"campaign": runCampaign,
	}[*wl]
	if run == nil {
		os.RemoveAll(work)
		die(fmt.Errorf("unknown --workload %q (want figure4, serve or campaign)", *wl))
	}
	err = run(b)
	os.RemoveAll(work)
	if err != nil {
		die(err)
	}
	if b.attempted < 1 {
		die(fmt.Errorf("no operation completed"))
	}
	os.Exit(b.report(*wl))
}

// report prints the human-readable lines and the JSON result line, and
// returns the exit code.
func (b *bench) report(wl string) int {
	b.named["error_rate"] = float64(b.failed) / float64(b.attempted)
	fmt.Printf("workload %s seed %d seconds %.0f trace %t\n", wl, b.seed, b.dur.Seconds(), b.traced)
	fmt.Printf("provenance nproc=%d go=%s inputs_digest=%s\n", b.nproc, runtime.Version(), b.digest)
	printSorted := func(title string, m map[string]float64) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("%-8s %-24s %16.4f %s\n", title, n, m[n], units[n])
		}
	}
	printSorted("e2e", b.named)
	printSorted("metric", b.metrics)
	for _, f := range b.failures {
		fmt.Printf("failure %s\n", f)
	}

	want := endToEnd
	if b.traced {
		want = perLayer
	}
	res := result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   make(map[string]metric, len(want)),
	}
	for _, n := range want {
		v, ok := b.metrics[n]
		// A layer the workload does not exercise reads 0: the "near zero
		// in" column of README.md's layer table.
		if (!ok && !b.traced) || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured (%v)\n", n, v)
			return 1
		}
		res.Metrics[n] = metric{Value: v, Unit: units[n]}
	}
	line, err := json.Marshal(res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durMs, durUs convert a duration to float milliseconds / microseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// mix64 is the SplitMix64 finalizer: a cheap, well-mixed hash that makes
// every generated input a pure function of (seed, index).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draw returns a deterministic value in [0, n) for (seed, stream, i).
func draw(seed int64, stream, i uint64, n int) int {
	return int(mix64(uint64(seed)^mix64(stream<<32^i)) % uint64(n))
}

// digestOf hashes the generated inputs for the provenance line.
func digestOf(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// reconcile checks that layer times, each measured on its own timer, add
// up to an end-to-end time measured on another, so a missing or
// mismeasured layer shows as a shortfall or excess. It returns the
// accounted share in percent and records a failed operation naming the
// unaccounted share when it is off by more than 15%.
func (b *bench) reconcile(what string, e2e float64, layers map[string]float64) float64 {
	var sum float64
	names := make([]string, 0, len(layers))
	for n, v := range layers {
		sum += v
		names = append(names, fmt.Sprintf("%s=%.1f", n, v))
	}
	sort.Strings(names)
	share := 100 * sum / e2e
	b.attempted++
	fmt.Printf("reconcile %s: layers %s sum %.1f of end-to-end %.1f (%.1f%%)\n",
		what, strings.Join(names, " "), sum, e2e, share)
	if share < 85 || share > 115 {
		b.fail("reconciliation %s: layers account for %.1f%% of the end-to-end time, %.1f%% unaccounted",
			what, share, 100-share)
	}
	return share
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

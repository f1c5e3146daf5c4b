package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dsu"
	"repro/internal/service"
)

const (
	// campaignConns is the job loop's connection plus the interactive
	// loop's.
	campaignConns    = 2
	campaignPoolSize = 6
	// jobThink is the pause between one job's verified artifact and the
	// next submission. wcetd keeps every finished job's points, event log
	// and in-memory artifact, so the pause bounds its growth over a run.
	jobThink = 5 * time.Millisecond
	// rssAfterJobs is the timed job after which the daemon's peak RSS is
	// read. wcetd keeps every finished job's points and event log, so its
	// RSS grows with the jobs done; a fixed point keeps the figure from
	// growing with throughput.
	rssAfterJobs = 200
	// campaignAppIterations keeps a 24-cell job short; after the warm-up
	// every baseline and estimate is cached whatever the size.
	campaignAppIterations = 60
)

// gridJob is one pool grid: its /v2/campaigns body, the equivalent
// cmd/experiments arguments, and the reference artifact those print.
type gridJob struct {
	spec []byte
	args []string
	ref  []byte
}

// campaignPool draws the seeded pool of 24-cell grids: the base table plus
// three scaled perturbations, times a model subset.
func campaignPool(seed int64) []gridJob {
	pcts := []int{-20, -15, -10, -5, 5, 10, 15, 20, 25, 30}
	subsets := [][]string{{"ftc"}, {"ilpPtac"}, {"ftc", "ilpPtac"}, {"ftcFsb"}, {"ftc", "ftcFsb"}, {"ilpPtac", "ftcFsb"}}
	var pool []gridJob
	for k := uint64(0); k < campaignPoolSize; k++ {
		type pert struct {
			Name         string `json:"name,omitempty"`
			ScalePercent int    `json:"scalePercent,omitempty"`
		}
		perts := []pert{{}}
		var flags []string
		used := map[int]bool{}
		for j := uint64(0); len(perts) < 4; j++ {
			p := pcts[draw(seed, 50+k, j, len(pcts))]
			if used[p] {
				continue
			}
			used[p] = true
			name := fmt.Sprintf("g%dp%d", k, len(perts))
			perts = append(perts, pert{Name: name, ScalePercent: 100 + p})
			flags = append(flags, fmt.Sprintf("%s:%+d", name, p))
		}
		models := subsets[draw(seed, 60, k, len(subsets))]
		spec, _ := json.Marshal(map[string]any{"grid": map[string]any{
			"models": models, "appIterations": campaignAppIterations, "perturbations": perts,
		}})
		pool = append(pool, gridJob{
			spec: spec,
			args: []string{"-only", "sweep", "-models", strings.Join(models, ","),
				"-app-iterations", strconv.Itoa(campaignAppIterations), "-perturb", strings.Join(flags, ",")},
		})
	}
	return pool
}

// interactiveBodies are the /v1/wcet requests the second connection sends
// while jobs drain; they are primed, so each is a cache hit.
func interactiveBodies() [][]byte {
	var out [][]byte
	for k := int64(0); k < 4; k++ {
		body, _ := json.Marshal(service.Request{
			Scenario:   1,
			Analysed:   dsu.Readings{CCNT: 157800 + 1000*k, PS: 18000, DS: 27000, PM: 3000},
			Contenders: []dsu.Readings{{CCNT: 500000, PS: 50000, DS: 60000, PM: 8000}},
		})
		out = append(out, body)
	}
	return out
}

// jobSample is one job's client-side event timeline.
type jobSample struct {
	total, submit, firstEvent, finish, artifact time.Duration
	gaps                                        []time.Duration
	// probe is the /healthz round trip sent between submit and opening
	// the stream, while the job's cells run, and quietProbe the one sent
	// after the artifact, when asked for; the other times exclude them.
	probe, quietProbe time.Duration
}

// runJob submits one grid, follows its SSE stream to the terminal event,
// and fetches and checks its artifact. With probe, /healthz round trips
// time the transport under each request's load: one between submit and
// opening the stream, while the job's cells run, and one after the
// artifact, once the job is done.
func runJob(c *loadClient, addr string, g gridJob, probe bool) (jobSample, error) {
	var s jobSample
	t0 := time.Now()
	req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v2/campaigns", bytes.NewReader(g.spec))
	req.Header.Set("Content-Type", "application/json")
	status, body, err := c.do(req)
	if err != nil {
		return s, err
	}
	if status != http.StatusAccepted {
		return s, fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(body))
	}
	var job struct {
		ID         string `json:"id"`
		TotalCells int    `json:"totalCells"`
	}
	if err := json.Unmarshal(body, &job); err != nil || job.ID == "" {
		return s, fmt.Errorf("submit: no job id in %s", body)
	}
	tSubmit := time.Now()
	s.submit = tSubmit.Sub(t0)
	if probe {
		req, _ := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
		status, _, err := c.do(req)
		s.probe = time.Since(tSubmit)
		if err != nil || status != http.StatusOK {
			return s, fmt.Errorf("/healthz probe: status %d: %v", status, err)
		}
	}

	resp, err := c.Get("http://" + addr + "/v2/campaigns/" + job.ID + "/stream")
	if err != nil {
		return s, err
	}
	var cellTimes []time.Time
	var tTerminal time.Time
	var event, data string
	terminal := ""
	rd := bufio.NewReader(resp.Body)
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			break
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = line[len("data: "):]
		case line == "":
			now := time.Now()
			if event == "cell" {
				cellTimes = append(cellTimes, now)
			} else if event == "state" {
				for _, st := range []string{"done", "failed", "canceled"} {
					if strings.Contains(data, `"state":"`+st+`"`) {
						terminal, tTerminal = st, now
					}
				}
			}
			event, data = "", ""
		}
	}
	io.Copy(io.Discard, rd)
	resp.Body.Close()
	if terminal != "done" {
		return s, fmt.Errorf("job %s stream ended in state %q", job.ID, terminal)
	}
	if len(cellTimes) != job.TotalCells || len(cellTimes) == 0 {
		return s, fmt.Errorf("job %s streamed %d cell events, want %d", job.ID, len(cellTimes), job.TotalCells)
	}
	s.firstEvent = cellTimes[0].Sub(tSubmit) - s.probe
	for i := 1; i < len(cellTimes); i++ {
		s.gaps = append(s.gaps, cellTimes[i].Sub(cellTimes[i-1]))
	}
	s.finish = tTerminal.Sub(cellTimes[len(cellTimes)-1])

	tArt := time.Now()
	req, _ = http.NewRequest(http.MethodGet, "http://"+addr+"/v2/campaigns/"+job.ID+"/artifact", nil)
	status, art, err := c.do(req)
	if err != nil {
		return s, err
	}
	done := time.Now()
	s.artifact = done.Sub(tArt)
	s.total = done.Sub(t0) - s.probe
	if status != http.StatusOK {
		return s, fmt.Errorf("artifact: status %d", status)
	}
	if !bytes.Equal(art, g.ref) {
		return s, fmt.Errorf("job %s artifact differs from cmd/experiments -only sweep -json", job.ID)
	}
	if probe {
		req, _ := http.NewRequest(http.MethodGet, "http://"+addr+"/healthz", nil)
		status, _, err := c.do(req)
		s.quietProbe = time.Since(done)
		if err != nil || status != http.StatusOK {
			return s, fmt.Errorf("/healthz probe: status %d: %v", status, err)
		}
	}
	return s, nil
}

// phase is one stretch of the campaign loop.
type phase struct {
	jobs        []jobSample
	interactive []float64 // microseconds
	hits        []served  // traced interactive requests
	elapsed     time.Duration
}

// campaignRig is one wcetd under the campaign load, with the client whose
// two connections carry the job loop and the interactive loop.
type campaignRig struct {
	b      *bench
	name   string
	d      *daemon
	client *loadClient
	pick   func(uint64) gridJob
	next   uint64
	// bodies are the interactive /v1/wcet requests and wants their
	// expected responses.
	bodies, wants [][]byte
	// rss is wcetd's VmHWM after rssAfterJobs timed untraced jobs; -1
	// until then.
	rss float64
}

// startRig starts wcetd, primes the interactive requests and submits every
// pool grid once, so the timed jobs find every baseline memoized and every
// estimate cached.
func (b *bench) startRig(name string, persist bool, pool []gridJob, pick func(uint64) gridJob, bodies, wants [][]byte) (*campaignRig, error) {
	d, err := b.startWcetd(name, persist)
	if err != nil {
		return nil, err
	}
	r := &campaignRig{b: b, name: name, d: d, client: newLoadClient(campaignConns),
		pick: pick, bodies: bodies, wants: wants, rss: -1}
	err = func() error {
		for _, body := range bodies {
			req, _ := http.NewRequest(http.MethodPost, "http://"+d.addr+"/v1/wcet", bytes.NewReader(body))
			if status, out, err := r.client.do(req); err != nil || status != http.StatusOK {
				return fmt.Errorf("priming interactive requests: status %d err %v: %s", status, err, out)
			}
		}
		for _, g := range pool {
			if _, err := runJob(r.client, d.addr, g, false); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}()
	if err != nil {
		r.stop()
		return nil, err
	}
	return r, nil
}

// stop closes the client and drains the daemon.
func (r *campaignRig) stop() error {
	r.client.close()
	exitRSS, err := r.d.stop()
	fmt.Printf("wcetd %s peak RSS at exit %.1f MB\n", r.name, exitRSS)
	return err
}

// run sends jobs one after another for dur while the interactive loop
// sends /v1/wcet hits, and returns what completed. traced sets
// X-Wcet-Trace on the interactive hits; probe is runJob's.
func (r *campaignRig) run(dur time.Duration, traced, probe bool) phase {
	b, addr := r.b, r.d.addr
	var p phase
	until := time.Now().Add(dur)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			req, _ := http.NewRequest(http.MethodPost, "http://"+addr+"/v1/wcet", bytes.NewReader(r.bodies[k%len(r.bodies)]))
			if traced {
				req.Header.Set(service.TraceHeader, "1")
			}
			t0 := time.Now()
			status, out, err := r.client.do(req)
			lat := time.Since(t0)
			p.interactive = append(p.interactive, durUs(lat))
			resp, root, uerr := unwrap(status, out, traced)
			want := r.wants[k%len(r.bodies)]
			if traced {
				want = bytes.TrimSpace(want)
			}
			if err == nil && uerr == nil && !bytes.Equal(resp, want) {
				uerr = fmt.Errorf("interactive response differs from in-process evaluation")
			}
			if err != nil || uerr != nil {
				p.hits = append(p.hits, served{class: -1})
				continue
			}
			if traced {
				p.hits = append(p.hits, served{class: classHot, lat: lat, root: root})
			}
		}
	}()
	start := time.Now()
	for time.Now().Before(until) {
		s, err := runJob(r.client, addr, r.pick(r.next), probe)
		r.next++
		b.attempted++
		if err != nil {
			b.fail("job: %v", err)
			continue
		}
		p.jobs = append(p.jobs, s)
		if len(p.jobs) == rssAfterJobs && !traced && r.rss < 0 {
			if r.rss, err = r.d.hwmMB(); err != nil {
				b.fail("reading wcetd's peak RSS: %v", err)
			}
		}
		time.Sleep(jobThink)
	}
	p.elapsed = time.Since(start)
	close(stop)
	wg.Wait()
	for _, h := range p.hits {
		b.attempted++
		if h.class == -1 {
			b.fail("interactive /v1/wcet request failed or differed")
		}
	}
	b.attempted += int64(len(p.interactive) - len(p.hits))
	return p
}

// runCampaign is the campaign workload: sequential /v2/campaigns jobs drawn
// from the seeded grid pool, after a warm-up that caches every baseline
// and estimate, while a second connection sends /v1/wcet hits.
func runCampaign(b *bench) error {
	pool := campaignPool(b.seed)
	var parts [][]byte
	for k := range pool {
		out := filepath.Join(b.work, fmt.Sprintf("ref%d.json", k))
		args := append(append([]string{}, pool[k].args...), "-workers", strconv.Itoa(b.nproc), "-json", out)
		if msg, err := exec.Command(filepath.Join(b.bin, "experiments"), args...).CombinedOutput(); err != nil {
			return fmt.Errorf("experiments %s: %v: %s", strings.Join(args, " "), err, msg)
		}
		ref, err := os.ReadFile(out)
		if err != nil {
			return err
		}
		pool[k].ref = ref
		parts = append(parts, pool[k].spec)
	}
	pick := func(j uint64) gridJob { return pool[draw(b.seed, 70, j, len(pool))] }
	for j := uint64(0); j < 1000; j++ {
		parts = append(parts, pick(j).spec)
	}
	b.digest = digestOf(parts...)

	bodies := interactiveBodies()
	var wants [][]byte
	for _, body := range bodies {
		want, _, err := expect(nil, genReq{body: body})
		if err != nil {
			return err
		}
		wants = append(wants, want)
	}

	setup, err := b.measureDaemonSetup(10)
	if err != nil {
		return err
	}
	b.metrics["setup_s"] = median(setup)
	// The timed jobs run in memory. Served from a -data directory, every
	// job writes and fsyncs its meta, checkpoint and artifact; on a shared
	// 2-vCPU virtual machine those job times drifted by 17% over four
	// back-to-back runs of one seed and spread by a third of their median
	// over ten seeds, beyond the benchmark's bounds. The traced run
	// measures the storage on a second daemon instead.
	rig, err := b.startRig("campaign", false, pool, pick, bodies, wants)
	if err != nil {
		return err
	}
	var main phase
	runErr := func() error {
		c, addr := rig.client, rig.d.addr
		initial, err := c.scrape(addr)
		if err != nil {
			return err
		}
		before := initial
		var traced phase
		if b.traced {
			main = rig.run(b.dur/3, false, true)
			if before, err = c.scrape(addr); err != nil {
				return err
			}
			traced = rig.run(b.dur/3, true, false)
		} else {
			main = rig.run(b.dur, false, false)
		}
		after, err := c.scrape(addr)
		if err != nil {
			return err
		}
		// The warm-up memoized every baseline: a simulator run in the
		// timed phase means the memo failed.
		b.metrics["campaign.sim_runs"] = after["campaign_sim_runs_total"] - initial["campaign_sim_runs_total"]
		b.attempted++
		if n := b.metrics["campaign.sim_runs"]; n != 0 {
			b.fail("%v simulator runs in the timed phase; the warm-up should have memoized every baseline", n)
		}
		if !b.traced {
			if rig.rss < 0 {
				return fmt.Errorf("only %d timed jobs completed; peak RSS is read after %d", len(main.jobs), rssAfterJobs)
			}
			b.metrics["peak_rss_mb"] = rig.rss
		}
		b.campaignMetrics(main, traced, initial, before, after)
		b.metrics["service.conns_opened"] = float64(c.dials.Load())
		b.attempted++
		if c.dials.Load() > campaignConns {
			b.fail("client opened %d connections for %d clients", c.dials.Load(), campaignConns)
		}
		return nil
	}()
	stopErr := rig.stop()
	if runErr != nil {
		return runErr
	}
	if stopErr != nil || !b.traced {
		return stopErr
	}

	// The job storage: the same jobs, probes included, on a wcetd serving
	// from an empty -data directory, where each job writes its meta,
	// appends its checkpoint lines and writes and re-reads its artifact,
	// every atomic write with its fsync.
	disk, err := b.startRig("campaign-data", true, pool, pick, bodies, wants)
	if err != nil {
		return err
	}
	stored := disk.run(b.dur/3, false, true)
	if err := disk.stop(); err != nil {
		return err
	}
	total := func(j jobSample) time.Duration { return j.total }
	b.metrics["jobs.storage_ms"] = median(jobMs(stored.jobs, total)) - median(jobMs(main.jobs, total))
	fmt.Printf("samples stored_jobs=%d job_ms_p50 in memory %.3f, with -data %.3f\n",
		len(stored.jobs), median(jobMs(main.jobs, total)), median(jobMs(stored.jobs, total)))
	return nil
}

func jobMs(jobs []jobSample, f func(jobSample) time.Duration) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = durMs(f(j))
	}
	return out
}

// campaignMetrics reports the untraced phase main, scraped at initial and
// before, and the traced phase, scraped at before and after.
func (b *bench) campaignMetrics(main, traced phase, initial, before, after map[string]float64) {
	total := jobMs(main.jobs, func(j jobSample) time.Duration { return j.total })
	b.named["job_ms_p50"] = median(total)
	b.named["job_ms_p99"] = quantile(total, 0.99)
	b.named["interactive_p50_us"] = median(main.interactive)
	b.named["interactive_p99_us"] = quantile(main.interactive, 0.99)
	fmt.Printf("samples jobs=%d interactive=%d\n", len(main.jobs), len(main.interactive))
	if !b.traced {
		b.metrics["lat_p50_ms"] = median(total)
		b.metrics["lat_p90_ms"] = quantile(total, 0.9)
		b.metrics["ops_per_s"] = float64(len(main.jobs)) / main.elapsed.Seconds()
		return
	}

	// The job layers and the reconciliation come from the untraced phase:
	// client-side event timestamps, wcetd's request histograms and the
	// probes need no tracing, and traced interactive hits load the client.
	var gaps []float64
	for _, j := range main.jobs {
		for _, g := range j.gaps {
			gaps = append(gaps, durUs(g))
		}
	}
	phaseMs := func(f func(jobSample) time.Duration) float64 { return median(jobMs(main.jobs, f)) }
	b.metrics["jobs.submit_ms"] = phaseMs(func(j jobSample) time.Duration { return j.submit })
	b.metrics["jobs.first_event_ms"] = phaseMs(func(j jobSample) time.Duration { return j.firstEvent })
	b.metrics["jobs.cell_gap_us"] = median(gaps)
	b.metrics["jobs.finish_ms"] = phaseMs(func(j jobSample) time.Duration { return j.finish })
	b.metrics["jobs.artifact_ms"] = phaseMs(func(j jobSample) time.Duration { return j.artifact })
	probes := jobMs(main.jobs, func(j jobSample) time.Duration { return j.probe })
	quiet := jobMs(main.jobs, func(j jobSample) time.Duration { return j.quietProbe })
	b.metrics["service.transport_us"] = 1000 * median(probes)
	ttotal := jobMs(traced.jobs, func(j jobSample) time.Duration { return j.total })
	b.metrics["trace_overhead_pct"] = 100 * (median(ttotal)/median(total) - 1)

	// serverMs is wcetd's own mean time per request of an endpoint over
	// the untraced phase.
	serverMs := func(endpoint string) float64 {
		series := `wcetd_request_seconds_%s{endpoint="` + endpoint + `"}`
		sum, count := fmt.Sprintf(series, "sum"), fmt.Sprintf(series, "count")
		return 1000 * (before[sum] - initial[sum]) / max(before[count]-initial[count], 1)
	}
	// A job is three requests on the client's clock: submit, the stream
	// (which lasts while the cells solve, up to the terminal event) and
	// the artifact. The server times each handler itself, and the probes
	// time a round trip on the same connection under each request's load:
	// the job's cells run beside submit and the stream, not beside the
	// artifact. Means: the parts partition each job, and the server's
	// histograms only give means.
	b.metrics["reconciled_pct"] = b.reconcile("campaign job mean (ms)", mean(total), map[string]float64{
		"transport(submit, stream)": 2 * mean(probes),
		"transport(artifact)":       mean(quiet),
		"server.submit":             serverMs("v2_campaigns"),
		"server.stream":             serverMs("v2_campaign_stream"),
		"server.artifact":           serverMs("v2_campaign_artifact"),
	})

	delta := func(name string) float64 { return after[name] - before[name] }
	memoHits, memoMisses := delta("campaign_memo_hits_total"), delta("campaign_memo_misses_total")
	b.metrics["campaign.memo_hits"] = memoHits
	b.metrics["campaign.memo_hit_rate"] = memoHits / max(memoHits+memoMisses, 1)
	b.metrics["campaign.bg_yields"] = delta("campaign_bg_yields_total")
	b.metrics["jobs.cells_solved"] = delta("jobs_cells_solved_total")
	b.metrics["ilp.warm_start_rate"] = delta("solver_warm_starts_total") / max(delta("solver_bb_nodes_total"), 1)
	hits, misses := delta("wcetd_cache_hits_total"), delta("wcetd_cache_misses_total")
	b.metrics["service.cache_hit_rate"] = hits / max(hits+misses, 1)

	// The interactive hits carry X-Wcet-Trace: the request-path layers a
	// job must not stall.
	var cacheUs []float64
	for _, h := range traced.hits {
		if h.root == nil {
			continue
		}
		if c := h.root.child("cache"); c != nil {
			cacheUs = append(cacheUs, float64(c.DurationUs))
		}
	}
	b.metrics["service.cache_us"] = median(cacheUs)
}

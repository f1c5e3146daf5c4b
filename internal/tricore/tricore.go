// Package tricore models the TriCore 1.6P and 1.6E cores of the AURIX
// TC27x at the level of detail the paper's contention analysis depends on:
// which memory accesses leave the core and become SRI transactions, how
// long the pipeline blocks on them, and what the DSU debug counters record.
//
// A core executes a trace.Source. Accesses to its local scratchpads and
// hits in its caches cost one cycle and stay inside the core. Everything
// else becomes an SRI transaction: the core blocks until the crossbar
// delivers the response, the cycle counter keeps running, and the
// PMEM_STALL/DMEM_STALL counter of the access's class is charged the
// transaction's arbitration wait plus its intrinsic minimum stall
// (the cs^{t,o} of the paper's Table 2 — the part of the end-to-end latency
// that core-side prefetching and SRI pipelining cannot hide).
//
// The 1.6P deploys a 16 KiB instruction cache and an 8 KiB write-back data
// cache whose dirty evictions fold into a longer refill transaction; the
// 1.6E deploys an 8 KiB instruction cache and a single-line data read
// buffer (DRB) with write-through stores.
package tricore

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dsu"
	"repro/internal/platform"
	"repro/internal/sri"
	"repro/internal/trace"
)

// Kind selects the core microarchitecture.
type Kind int

const (
	// TC16P is the higher-performance TriCore 1.6P (cores 1 and 2 of the
	// TC277).
	TC16P Kind = iota
	// TC16E is the low-power TriCore 1.6E (core 0).
	TC16E
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case TC16P:
		return "TC1.6P"
	case TC16E:
		return "TC1.6E"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config describes one core instance.
type Config struct {
	// Index is the core's id and SRI master port (0..2). On the TC277,
	// index 0 is the 1.6E and indices 1-2 are 1.6P cores; New enforces
	// nothing about that pairing so tests can build other mixes.
	Index int
	// Kind picks the microarchitecture.
	Kind Kind
}

type phase int

const (
	phaseReady   phase = iota // fetch or resolve the next access
	phaseGap                  // consuming compute cycles
	phaseBlocked              // waiting on an SRI transaction
	phaseDone                 // trace exhausted
)

// Core is one simulated TriCore. It is clocked by the simulation harness:
// Tick at the cycles NextEvent names, Skip over the cycles in between,
// and deliver any sri completions via Complete. Ticking every cycle is
// equivalent.
type Core struct {
	cfg    Config
	lat    *platform.LatencyTable
	x      *sri.Interconnect
	src    trace.Source
	icache *cache.Cache
	dcache *cache.Cache
	bank   dsu.Bank

	ph      phase
	gapLeft int64
	// pend is the access being executed, valid while hasPend is set.
	pend    trace.Access
	hasPend bool
	// followup is a second SRI transaction to issue as soon as the
	// current one completes (dirty write-back followed by the refill),
	// valid while hasFollowup is set.
	followup    sri.Request
	hasFollowup bool
}

// New builds a core of the given kind attached to crossbar x, executing
// src. The latency table supplies SRI service times.
func New(cfg Config, lat *platform.LatencyTable, x *sri.Interconnect, src trace.Source) (*Core, error) {
	if cfg.Index < 0 || cfg.Index >= x.NumMasters() {
		return nil, fmt.Errorf("tricore: core index %d outside crossbar's %d masters", cfg.Index, x.NumMasters())
	}
	if err := lat.Validate(); err != nil {
		return nil, fmt.Errorf("tricore: %w", err)
	}
	c := &Core{cfg: cfg, lat: lat, x: x, src: src}
	switch cfg.Kind {
	case TC16P:
		c.icache = cache.MustNew(cache.TC16PICache(), false)
		c.dcache = cache.MustNew(cache.TC16PDCache(), true)
	case TC16E:
		c.icache = cache.MustNew(cache.TC16EICache(), false)
		c.dcache = cache.MustNew(cache.TC16EDRB(), false)
	default:
		return nil, fmt.Errorf("tricore: unknown kind %v", cfg.Kind)
	}
	src.Reset()
	return c, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config, lat *platform.LatencyTable, x *sri.Interconnect, src trace.Source) *Core {
	c, err := New(cfg, lat, x, src)
	if err != nil {
		panic(err)
	}
	return c
}

// Index returns the core id.
func (c *Core) Index() int { return c.cfg.Index }

// Kind returns the core microarchitecture.
func (c *Core) Kind() Kind { return c.cfg.Kind }

// Done reports whether the core has exhausted its trace.
func (c *Core) Done() bool { return c.ph == phaseDone }

// Counters returns the core's DSU readings so far.
func (c *Core) Counters() dsu.Readings { return c.bank.Snapshot() }

// ResetCounters zeroes the DSU bank (cache contents are kept, matching a
// counter reprogramming on warmed-up hardware).
func (c *Core) ResetCounters() { c.bank.Reset() }

// Restart rearms a finished core to execute its source again (callers
// reset the source themselves). Cache contents survive, which is the
// point: warm-measurement protocols run the task once to warm the caches
// and measure the second pass. Restarting a core with an in-flight
// transaction is a programming error.
func (c *Core) Restart() {
	if c.ph == phaseBlocked {
		panic(fmt.Sprintf("tricore: core %d restarted with an in-flight transaction", c.cfg.Index))
	}
	c.ph = phaseReady
	c.hasPend = false
	c.gapLeft = 0
	c.hasFollowup = false
}

// ICacheStats exposes instruction-cache statistics for tests.
func (c *Core) ICacheStats() (hits, missClean, missDirty int64) { return c.icache.Stats() }

// DCacheStats exposes data-cache statistics for tests.
func (c *Core) DCacheStats() (hits, missClean, missDirty int64) { return c.dcache.Stats() }

// NextEvent returns the first cycle from now on at which Tick does more
// than count: now when the core is ready, the cycle its compute gap ends,
// or sri.Never when it is blocked on the SRI (only Complete wakes it) or
// done.
func (c *Core) NextEvent(now int64) int64 {
	switch c.ph {
	case phaseReady:
		return now
	case phaseGap:
		return now + c.gapLeft
	default:
		return sri.Never
	}
}

// Skip credits k cycles in bulk, exactly as k calls of Tick would have:
// CCNT advances by k and a compute gap shrinks by k. k must not reach
// past the core's NextEvent.
func (c *Core) Skip(k int64) {
	switch c.ph {
	case phaseReady:
		if k > 0 {
			panic(fmt.Sprintf("tricore: core %d skipped %d cycles while ready", c.cfg.Index, k))
		}
	case phaseBlocked:
		c.bank.Add(dsu.CCNT, k)
	case phaseGap:
		if k > c.gapLeft {
			panic(fmt.Sprintf("tricore: core %d skipped %d cycles past its %d-cycle gap", c.cfg.Index, k, c.gapLeft))
		}
		c.bank.Add(dsu.CCNT, k)
		c.gapLeft -= k
		if c.gapLeft == 0 {
			c.ph = phaseReady
		}
	}
}

// Tick advances the core by one cycle. now is the global cycle number,
// forwarded to the crossbar on issues.
func (c *Core) Tick(now int64) {
	switch c.ph {
	case phaseDone:
		return
	case phaseBlocked:
		c.bank.Add(dsu.CCNT, 1)
		return
	case phaseGap:
		c.bank.Add(dsu.CCNT, 1)
		c.gapLeft--
		if c.gapLeft == 0 {
			c.ph = phaseReady
		}
		return
	}

	// phaseReady: pull the next access if none pending.
	if !c.hasPend {
		a, ok := c.src.Next()
		if !ok {
			c.ph = phaseDone
			return
		}
		c.pend, c.hasPend = a, true
		if a.Gap > 0 {
			// This cycle is the first gap cycle.
			c.bank.Add(dsu.CCNT, 1)
			c.gapLeft = a.Gap - 1
			if c.gapLeft > 0 {
				c.ph = phaseGap
			}
			return
		}
	}
	c.resolve(now)
}

// resolve classifies the pending access and either completes it locally
// (one cycle) or turns it into an SRI transaction and blocks.
func (c *Core) resolve(now int64) {
	a := c.pend
	c.bank.Add(dsu.CCNT, 1) // the access's own dispatch cycle
	r := platform.Decode(a.Addr)

	switch r.Kind {
	case platform.RegionPSPR, platform.RegionDSPR:
		// Local (or another core's) scratchpad: single-cycle, no SRI
		// traffic. Cross-core scratchpad traffic is excluded by the
		// paper's system model, and our workloads never generate it.
		c.hasPend = false
		return
	case platform.RegionInvalid:
		panic(fmt.Sprintf("tricore: core %d accessed unmapped address %#x", c.cfg.Index, a.Addr))
	}

	// SRI-backed address.
	if a.Kind == trace.Fetch {
		c.resolveFetch(now, a, r)
	} else {
		c.resolveData(now, a, r)
	}
}

// request builds an SRI request for (t, o) at the line holding addr, with
// the prefetch discount wired in when the target supports one (lmin < lmax
// in Table 2 — the program flash banks).
func (c *Core) request(t platform.Target, o platform.Op, service int64, addr uint32) sri.Request {
	r := sri.Request{
		Master:  c.cfg.Index,
		Target:  t,
		Op:      o,
		Service: service,
		Addr:    addr &^ 31, // 32-byte line alignment
	}
	l, err := c.lat.Lookup(t, o)
	if err != nil {
		panic(err)
	}
	if l.Min < service {
		r.MinService = l.Min
	}
	return r
}

func (c *Core) resolveFetch(now int64, a trace.Access, r platform.Region) {
	if r.Cacheable {
		out := c.icache.Access(a.Addr, false)
		if out.Result == cache.Hit {
			c.hasPend = false
			return
		}
		c.bank.Add(dsu.PCacheMiss, 1)
	}
	// Cache miss or non-cacheable fetch: fetch the line over the SRI.
	c.issue(now, c.request(r.Target, platform.Code, c.lat.MaxLatency(r.Target, platform.Code), a.Addr))
}

func (c *Core) resolveData(now int64, a trace.Access, r platform.Region) {
	write := a.Kind == trace.Store
	if !r.Cacheable {
		// Non-cacheable data goes straight to the SRI, one transaction
		// per access, no miss counters.
		c.issue(now, c.request(r.Target, platform.Data, c.lat.MaxLatency(r.Target, platform.Data), a.Addr))
		return
	}

	if write && c.cfg.Kind == TC16E {
		// The 1.6E has no data cache: stores are write-through and bypass
		// the DRB entirely, so every cacheable store still costs one SRI
		// transaction and counts no miss.
		c.issue(now, c.request(r.Target, platform.Data, c.lat.MaxLatency(r.Target, platform.Data), a.Addr))
		return
	}

	out := c.dcache.Access(a.Addr, write)
	if out.Result == cache.Hit {
		c.hasPend = false
		return
	}

	refill := c.request(r.Target, platform.Data, c.lat.MaxLatency(r.Target, platform.Data), a.Addr)
	switch out.Result {
	case cache.MissClean:
		c.bank.Add(dsu.DCacheMissClean, 1)
		c.issue(now, refill)
	case cache.MissDirty:
		c.bank.Add(dsu.DCacheMissDirty, 1)
		victim := platform.Decode(out.VictimAddr)
		if victim.Kind != platform.RegionSRI {
			panic(fmt.Sprintf("tricore: dirty victim %#x not SRI-backed", out.VictimAddr))
		}
		if victim.Target == platform.LMU && r.Target == platform.LMU {
			// Write-back and refill to the LMU fold into one longer
			// transaction — the bracketed 21-cycle latency of Table 2.
			refill.Service = platform.TC27xLMUDirtyMissLatency
			c.issue(now, refill)
			return
		}
		// Otherwise the write-back is its own transaction, followed by
		// the refill as soon as it completes.
		c.followup, c.hasFollowup = refill, true
		c.issue(now, c.request(victim.Target, platform.Data,
			c.lat.MaxLatency(victim.Target, platform.Data), out.VictimAddr))
	}
}

func (c *Core) issue(now int64, r sri.Request) {
	c.x.Issue(now, r)
	c.ph = phaseBlocked
}

// Complete must be called by the harness when the crossbar reports a
// completion for this core. It charges the stall counters and unblocks the
// core (or chains the follow-up transaction of a dirty miss).
func (c *Core) Complete(now int64, cmp sri.Completion) {
	if c.ph != phaseBlocked {
		panic(fmt.Sprintf("tricore: core %d got completion while not blocked", c.cfg.Index))
	}
	if cmp.Master != c.cfg.Index {
		panic(fmt.Sprintf("tricore: core %d got completion for master %d", c.cfg.Index, cmp.Master))
	}

	// The stall charged is the arbitration wait (contention, never
	// hidden) plus the intrinsic minimum stall of the transaction: its
	// service time minus the slack core-side prefetching hides. For a
	// standard transaction (service == Max) that is exactly cs^{t,o}.
	l, err := c.lat.Lookup(cmp.Target, cmp.Op)
	if err != nil {
		panic(err)
	}
	hidden := l.Max - l.Stall
	service := cmp.EndToEnd - cmp.Waited
	stall := cmp.Waited + service - hidden
	if stall < 0 {
		stall = 0
	}
	counter := dsu.PMemStall
	if cmp.Op == platform.Data {
		counter = dsu.DMemStall
	}
	c.bank.Add(counter, stall)

	if c.hasFollowup {
		c.hasFollowup = false
		// The refill can only be seen by the arbiter on the next cycle;
		// stamp it there so the dead cycle is not misaccounted as
		// contention wait.
		c.x.Issue(now+1, c.followup)
		return
	}
	c.hasPend = false
	c.ph = phaseReady
}

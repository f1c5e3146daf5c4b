// Package sri models the Shared Resource Interconnect of the AURIX TC27x:
// the crossbar that connects the three TriCore masters to the shared slave
// interfaces (pf0, pf1, dfl, lmu).
//
// The model captures exactly the properties the paper's contention analysis
// builds on:
//
//   - transactions to *distinct* slave interfaces proceed in parallel;
//   - requests to the *same* slave are arbitrated round-robin per slave, so
//     a request can be delayed by at most one in-flight plus the queued
//     requests of other masters ahead of it in round-robin order;
//   - each transaction occupies its slave for a per-(target, op) service
//     time taken from the platform latency table, with an optional
//     override for special transactions (dirty-miss refills on the LMU).
//
// The interconnect is clocked externally, after the cores have issued for
// the cycle. Only retirements and grants change its state, so the harness
// calls Tick at the cycles NextEvent names and skips the rest; ticking
// every cycle gives the same results, only slower. It is deliberately
// single-threaded and deterministic.
package sri

import (
	"fmt"
	"math"

	"repro/internal/platform"
)

// Never is the next-event cycle of a component with nothing scheduled.
const Never int64 = math.MaxInt64

// Request describes one SRI transaction to issue.
type Request struct {
	// Master is the issuing core index.
	Master int
	// Target is the slave interface addressed.
	Target platform.Target
	// Op is the operation class (code fetch or data access) used for
	// arbitration accounting and statistics.
	Op platform.Op
	// Service is the number of cycles the transaction occupies the slave.
	// It must be positive; callers normally pass the Max latency of the
	// (target, op) pair, or the dirty-miss override.
	Service int64
	// Addr is the line-aligned address of the transaction, consulted by
	// the flash prefetch buffer when enabled.
	Addr uint32
	// MinService, when positive, is the reduced service time the slave
	// charges when its prefetch buffer already holds the requested line
	// (the lmin column of Table 2 — 12 instead of 16 cycles on the
	// program flash). Zero disables the discount for this request.
	MinService int64
}

// Completion reports a finished transaction back to its master.
type Completion struct {
	Master int
	Target platform.Target
	Op     platform.Op
	// Waited is the number of cycles the request sat in the slave queue
	// before being granted (pure contention delay).
	Waited int64
	// EndToEnd is the total latency from issue to completion, i.e.
	// Waited + service time.
	EndToEnd int64
}

type pendingReq struct {
	Request
	issuedAt int64
}

type slaveState struct {
	// pending[m] holds core m's queued request, if any. It points at the
	// master's request record in Interconnect.reqs.
	pending []*pendingReq
	// queued counts the non-nil entries of pending.
	queued int
	// inflight is the granted transaction, nil when the slave is idle.
	inflight *pendingReq
	// grantedAt is the cycle the in-flight transaction was granted.
	grantedAt int64
	// grantedService is the service time chosen at grant (the request's
	// Service, or MinService on a prefetch hit).
	grantedService int64
	// rrNext is the master index that has priority at the next grant.
	rrNext int

	// Prefetch-buffer state: the last line this slave served, and to
	// whom. A sequential next-line request from the same master hits the
	// buffer.
	lastAddr   uint32
	lastMaster int
	lastValid  bool

	// Per-(master, op) grant counts: ground-truth PTAC for validation.
	grants [][platform.NumOps]int64
	// waitCycles accumulates contention wait per master.
	waitCycles []int64
	// prefetchHits counts grants served at MinService.
	prefetchHits int64
}

// Interconnect is the SRI crossbar. Construct with New.
type Interconnect struct {
	numMasters int
	slaves     [platform.NumTargets]slaveState
	// outstanding[m] is the slave core m is blocked on, or -1.
	outstanding []int
	// prefetch enables the flash prefetch buffers: sequential next-line
	// requests from the same master are served in the request's
	// MinService cycles. Off by default — the contention models assume
	// worst-case service times, and the calibration of Table 2's lmin
	// column is the one experiment that needs it.
	prefetch bool
	// lineSize is the prefetch sequentiality stride.
	lineSize uint32
	// priority[m] is master m's SRI priority class: higher values win
	// arbitration outright; round-robin applies within a class. All
	// masters default to class 0 — the paper's system model ("requests
	// of contenders are mapped to the same SRI priority class", §2),
	// which is also the most stressing case for the contention models.
	priority []int
	// jitter, when non-zero, is the state of a deterministic xorshift
	// PRNG that draws each granted service time uniformly from
	// [MinService, Service] — the paper's observation that "the actual
	// stall cycles are not constant and depend on pipelining and
	// prefetching effects", as an adversarial (but repeatable) testbed
	// for the models, which only ever assume the Service worst case.
	jitter uint64

	// reqs[m] is master m's request record, reused by every Issue: a
	// master has at most one outstanding transaction.
	reqs []pendingReq
	// done is the completion buffer Tick returns, reused across calls.
	done []Completion
	// due is the earliest cycle at which Tick has a retirement or a
	// grant to perform, or Never.
	due int64
}

// New builds an SRI crossbar for numMasters cores.
func New(numMasters int) *Interconnect {
	if numMasters <= 0 {
		panic(fmt.Sprintf("sri: numMasters must be positive, got %d", numMasters))
	}
	x := &Interconnect{
		numMasters:  numMasters,
		outstanding: make([]int, numMasters),
		priority:    make([]int, numMasters),
		reqs:        make([]pendingReq, numMasters),
		due:         Never,
	}
	for m := range x.outstanding {
		x.outstanding[m] = -1
	}
	for t := range x.slaves {
		x.slaves[t].pending = make([]*pendingReq, numMasters)
		x.slaves[t].grants = make([][platform.NumOps]int64, numMasters)
		x.slaves[t].waitCycles = make([]int64, numMasters)
	}
	return x
}

// NumMasters returns the number of master ports.
func (x *Interconnect) NumMasters() int { return x.numMasters }

// EnableFlashPrefetch turns on the per-slave prefetch buffers with the
// given sequentiality stride (the 32-byte flash line on the TC27x).
func (x *Interconnect) EnableFlashPrefetch(lineSize uint32) {
	if lineSize == 0 {
		panic("sri: zero prefetch line size")
	}
	x.prefetch = true
	x.lineSize = lineSize
}

// PrefetchHits returns how many transactions target t served at the
// reduced prefetch service time.
func (x *Interconnect) PrefetchHits(t platform.Target) int64 {
	return x.slaves[t].prefetchHits
}

// EnableServiceJitter makes every slave draw granted service times
// uniformly from [MinService, Service] using a deterministic PRNG seeded
// with seed (which must be non-zero). Mutually exclusive with the prefetch
// buffers, which model the *systematic* part of the same variability.
func (x *Interconnect) EnableServiceJitter(seed uint64) {
	if seed == 0 {
		panic("sri: jitter seed must be non-zero")
	}
	if x.prefetch {
		panic("sri: jitter and prefetch are mutually exclusive")
	}
	x.jitter = seed
}

// nextRand steps the xorshift64 PRNG.
func (x *Interconnect) nextRand() uint64 {
	x.jitter ^= x.jitter << 13
	x.jitter ^= x.jitter >> 7
	x.jitter ^= x.jitter << 17
	return x.jitter
}

// SetMasterPriority assigns master m to an SRI priority class; higher
// values win arbitration over lower ones, round-robin applies within a
// class. The paper's contention models assume all contenders share the
// analysed task's class; configuring the analysed master *below* a
// contender voids them (a single request can then wait behind arbitrarily
// many higher-class transactions), which TestPriorityClassesVoidModel
// demonstrates.
func (x *Interconnect) SetMasterPriority(m, class int) {
	if m < 0 || m >= x.numMasters {
		panic(fmt.Sprintf("sri: bad master %d", m))
	}
	x.priority[m] = class
}

// Busy reports whether master m has an outstanding transaction.
func (x *Interconnect) Busy(m int) bool { return x.outstanding[m] >= 0 }

// Issue enqueues a request at cycle now. Each master may have only one
// outstanding transaction (TriCore masters block on their memory
// interface); violating that, or passing an illegal request, is a
// programming error and panics.
func (x *Interconnect) Issue(now int64, r Request) {
	switch {
	case r.Master < 0 || r.Master >= x.numMasters:
		panic(fmt.Sprintf("sri: bad master %d", r.Master))
	case !platform.CanAccess(r.Target, r.Op):
		panic(fmt.Sprintf("sri: illegal access path %s/%s", r.Target, r.Op))
	case r.Service <= 0:
		panic(fmt.Sprintf("sri: non-positive service time %d", r.Service))
	case x.outstanding[r.Master] >= 0:
		panic(fmt.Sprintf("sri: master %d already has an outstanding transaction", r.Master))
	}
	x.outstanding[r.Master] = int(r.Target)
	p := &x.reqs[r.Master]
	*p = pendingReq{Request: r, issuedAt: now}
	s := &x.slaves[r.Target]
	s.pending[r.Master] = p
	s.queued++
	if s.inflight == nil && now < x.due {
		// An idle slave grants at the request's first tick; a busy one
		// grants when its in-flight transaction retires, which is already
		// due.
		x.due = now
	}
}

// NextEvent returns the earliest cycle at which Tick retires or grants a
// transaction, or Never when the crossbar is idle. Issue can only move it
// earlier.
func (x *Interconnect) NextEvent() int64 { return x.due }

// Tick advances the crossbar to cycle now: completes transactions whose
// service time has elapsed and grants queued requests on idle slaves in
// round-robin order. It returns the completions delivered this cycle, in
// a buffer that the next Tick reuses. Callers must tick with strictly
// increasing now values, at least at every cycle NextEvent returns; on
// any other cycle Tick has nothing to do and returns at once.
func (x *Interconnect) Tick(now int64) []Completion {
	if now < x.due {
		return nil
	}
	done := x.done[:0]
	x.due = Never
	for ti := range x.slaves {
		s := &x.slaves[ti]
		if r := s.inflight; r != nil {
			end := s.grantedAt + s.grantedService
			if now < end {
				x.due = min(x.due, end)
				continue
			}
			// Retire the in-flight transaction: its service elapsed.
			s.inflight = nil
			x.outstanding[r.Master] = -1
			done = append(done, Completion{
				Master:   r.Master,
				Target:   r.Target,
				Op:       r.Op,
				Waited:   s.grantedAt - r.issuedAt,
				EndToEnd: now - r.issuedAt,
			})
		}
		if s.queued == 0 {
			continue
		}
		// Grant the next pending request: highest priority class first,
		// round-robin within the class.
		best := -1
		for i, m := 0, s.rrNext; i < x.numMasters; i++ {
			if s.pending[m] != nil && (best < 0 || x.priority[m] > x.priority[best]) {
				best = m
			}
			if m++; m == x.numMasters {
				m = 0
			}
		}
		m := best
		r := s.pending[m]
		s.pending[m] = nil
		s.queued--
		s.inflight = r
		s.grantedAt = now
		s.grantedService = r.Service
		if x.prefetch && r.MinService > 0 && s.lastValid &&
			s.lastMaster == m && r.Addr == s.lastAddr+x.lineSize {
			s.grantedService = r.MinService
			s.prefetchHits++
		}
		if x.jitter != 0 && r.MinService > 0 && r.MinService < r.Service {
			span := uint64(r.Service - r.MinService + 1)
			s.grantedService = r.MinService + int64(x.nextRand()%span)
		}
		s.lastAddr = r.Addr
		s.lastMaster = m
		s.lastValid = true
		s.rrNext = (m + 1) % x.numMasters
		s.grants[m][r.Op]++
		s.waitCycles[m] += now - r.issuedAt
		x.due = min(x.due, now+s.grantedService)
	}
	x.done = done
	return done
}

// Grants returns the ground-truth number of transactions master m completed
// (or was granted) on target t with operation o. The real TC27x offers no
// such counter — the whole point of the paper's Eq. 4 is reconstructing an
// upper bound on these from stall cycles — but the simulator exposes them
// so tests can check the models against the truth.
func (x *Interconnect) Grants(m int, t platform.Target, o platform.Op) int64 {
	return x.slaves[t].grants[m][o]
}

// WaitCycles returns the total arbitration wait master m accumulated on
// target t: the exact contention it suffered there.
func (x *Interconnect) WaitCycles(m int, t platform.Target) int64 {
	return x.slaves[t].waitCycles[m]
}

// TotalWaitCycles returns the contention wait master m accumulated across
// all slaves.
func (x *Interconnect) TotalWaitCycles(m int) int64 {
	var sum int64
	for _, t := range platform.Targets {
		sum += x.slaves[t].waitCycles[m]
	}
	return sum
}

// ResetStats zeroes grant and wait statistics without disturbing in-flight
// state.
func (x *Interconnect) ResetStats() {
	for ti := range x.slaves {
		s := &x.slaves[ti]
		for m := range s.grants {
			s.grants[m] = [platform.NumOps]int64{}
			s.waitCycles[m] = 0
		}
	}
}

// Idle reports whether no transaction is queued or in flight anywhere.
func (x *Interconnect) Idle() bool {
	for ti := range x.slaves {
		if s := &x.slaves[ti]; s.inflight != nil || s.queued > 0 {
			return false
		}
	}
	return true
}

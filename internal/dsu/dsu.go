// Package dsu models the Debug Support Unit counters of the TC27x that the
// paper's contention models consume: the cycle counter CCNT, the pipeline
// stall counters PMEM_STALL and DMEM_STALL (cycles stalled on the program
// and data memory interfaces), and the cache-miss counters PCACHE_MISS,
// DCACHE_MISS_CLEAN and DCACHE_MISS_DIRTY.
//
// These six counters are the *only* channel through which the analytical
// models may observe a task — exactly the industrial constraint the paper
// works under (information available via standard DSU, not simulator-only
// metrics). The simulator drives them from core events; tests may also
// construct Readings literals directly from the paper's Table 6.
package dsu

import (
	"fmt"
	"strconv"
)

// Counter identifies one DSU debug counter.
type Counter int

const (
	// CCNT is the on-chip cycle counter.
	CCNT Counter = iota
	// PMemStall counts cycles the pipeline stalled on the program memory
	// interface (PMEM_STALL).
	PMemStall
	// DMemStall counts cycles the pipeline stalled on the data memory
	// interface (DMEM_STALL).
	DMemStall
	// PCacheMiss counts instruction-cache misses (PCACHE_MISS).
	PCacheMiss
	// DCacheMissClean counts data-cache misses with a clean victim
	// (DCACHE_MISS_CLEAN).
	DCacheMissClean
	// DCacheMissDirty counts data-cache misses that evicted a dirty line
	// (DCACHE_MISS_DIRTY).
	DCacheMissDirty
	// NumCounters is the number of modelled counters.
	NumCounters
)

// String returns the TC27x manual's name for the counter.
func (c Counter) String() string {
	switch c {
	case CCNT:
		return "CCNT"
	case PMemStall:
		return "PMEM_STALL"
	case DMemStall:
		return "DMEM_STALL"
	case PCacheMiss:
		return "PCACHE_MISS"
	case DCacheMissClean:
		return "DCACHE_MISS_CLEAN"
	case DCacheMissDirty:
		return "DCACHE_MISS_DIRTY"
	default:
		return fmt.Sprintf("Counter(%d)", int(c))
	}
}

// Bank is one core's set of debug counters.
type Bank struct {
	vals [NumCounters]int64
}

// Add increments counter c by n; n may be any non-negative amount.
func (b *Bank) Add(c Counter, n int64) {
	if c < 0 || c >= NumCounters {
		panic(fmt.Sprintf("dsu: bad counter %d", int(c)))
	}
	if n < 0 {
		panic(fmt.Sprintf("dsu: negative increment %d for %s", n, c))
	}
	b.vals[c] += n
}

// Read returns the current value of counter c.
func (b *Bank) Read(c Counter) int64 {
	if c < 0 || c >= NumCounters {
		panic(fmt.Sprintf("dsu: bad counter %d", int(c)))
	}
	return b.vals[c]
}

// Reset zeroes every counter, as reprogramming the DSU between measurement
// runs would.
func (b *Bank) Reset() { b.vals = [NumCounters]int64{} }

// Snapshot captures the full counter state as Readings.
func (b *Bank) Snapshot() Readings {
	return Readings{
		CCNT: b.vals[CCNT],
		PS:   b.vals[PMemStall],
		DS:   b.vals[DMemStall],
		PM:   b.vals[PCacheMiss],
		DMC:  b.vals[DCacheMissClean],
		DMD:  b.vals[DCacheMissDirty],
	}
}

// Readings is one end-to-end measurement of a task in isolation: the
// counter values the paper tabulates (Table 4 naming: PS, DS, PM, DMC,
// DMD) plus the cycle count.
type Readings struct {
	// CCNT is the observed execution time in cycles.
	CCNT int64
	// PS is PMEM_STALL: cycles stalled on the program memory interface.
	PS int64
	// DS is DMEM_STALL: cycles stalled on the data memory interface.
	DS int64
	// PM is PCACHE_MISS: instruction cache misses.
	PM int64
	// DMC is DCACHE_MISS_CLEAN: clean data-cache misses.
	DMC int64
	// DMD is DCACHE_MISS_DIRTY: dirty data-cache misses.
	DMD int64
}

// Validate rejects obviously impossible readings: negative counts, stall
// cycles exceeding total cycles, and event counts that cannot fit in the
// observed execution time (every cache miss costs at least one cycle, so
// no miss counter can exceed CCNT).
func (r Readings) Validate() error {
	for _, c := range [...]struct {
		name string
		v    int64
	}{
		{"CCNT", r.CCNT}, {"PS", r.PS}, {"DS", r.DS},
		{"PM", r.PM}, {"DMC", r.DMC}, {"DMD", r.DMD},
	} {
		if c.v < 0 {
			return fmt.Errorf("dsu: negative %s counter %d in %v", c.name, c.v, r)
		}
	}
	if r.CCNT == 0 {
		return nil
	}
	if r.PS > r.CCNT {
		return fmt.Errorf("dsu: PMEM_STALL %d exceeds CCNT %d", r.PS, r.CCNT)
	}
	if r.DS > r.CCNT {
		return fmt.Errorf("dsu: DMEM_STALL %d exceeds CCNT %d", r.DS, r.CCNT)
	}
	if r.PS+r.DS > r.CCNT {
		return fmt.Errorf("dsu: stall cycles %d+%d exceed CCNT %d", r.PS, r.DS, r.CCNT)
	}
	if r.PM > r.CCNT {
		return fmt.Errorf("dsu: PCACHE_MISS %d exceeds CCNT %d", r.PM, r.CCNT)
	}
	// Individual bounds before the sum: with both addends <= CCNT the sum
	// cannot overflow int64.
	if r.DMC > r.CCNT {
		return fmt.Errorf("dsu: DCACHE_MISS_CLEAN %d exceeds CCNT %d", r.DMC, r.CCNT)
	}
	if r.DMD > r.CCNT {
		return fmt.Errorf("dsu: DCACHE_MISS_DIRTY %d exceeds CCNT %d", r.DMD, r.CCNT)
	}
	if r.DMC+r.DMD > r.CCNT {
		return fmt.Errorf("dsu: data-cache misses %d+%d exceed CCNT %d", r.DMC, r.DMD, r.CCNT)
	}
	return nil
}

// Sub returns the counter deltas r - start, for deriving per-phase
// measurements from two snapshots of a free-running bank.
//
// Sub does not mask underflow: if any counter of start exceeds r's — the
// snapshots were swapped, or a hardware counter wrapped between them —
// the delta goes negative, and Validate on the result reports it. Callers
// diffing snapshots from untrusted input (the calibration wire path) must
// validate the delta, not the raw snapshots: two individually-plausible
// snapshots can still produce an impossible phase measurement.
func (r Readings) Sub(start Readings) Readings {
	return Readings{
		CCNT: r.CCNT - start.CCNT,
		PS:   r.PS - start.PS,
		DS:   r.DS - start.DS,
		PM:   r.PM - start.PM,
		DMC:  r.DMC - start.DMC,
		DMD:  r.DMD - start.DMD,
	}
}

// AppendKey appends the field-tagged rendering of r that cache keys are
// built from. It uses strconv, not fmt: key builders run on every cache
// probe.
func AppendKey(b []byte, r Readings) []byte {
	b = strconv.AppendInt(append(b, 'c'), r.CCNT, 10)
	b = strconv.AppendInt(append(b, ",ps"...), r.PS, 10)
	b = strconv.AppendInt(append(b, ",ds"...), r.DS, 10)
	b = strconv.AppendInt(append(b, ",pm"...), r.PM, 10)
	b = strconv.AppendInt(append(b, ",mc"...), r.DMC, 10)
	return strconv.AppendInt(append(b, ",md"...), r.DMD, 10)
}

// String renders the readings in Table 6 column order.
func (r Readings) String() string {
	return fmt.Sprintf("PM=%d DMC=%d DMD=%d PS=%d DS=%d CCNT=%d", r.PM, r.DMC, r.DMD, r.PS, r.DS, r.CCNT)
}

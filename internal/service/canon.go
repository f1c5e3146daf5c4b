package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"strconv"

	"repro/internal/dsu"
	"repro/wcet"
)

// CanonicalKey content-addresses a request: two requests get the same key
// iff the models are guaranteed to produce the same response for both.
// Defaults are normalized (stallMode "" ≡ "budget", rta.model "" ≡
// "ilpPtac", an unnamed rta task ≡ "analysed") and contender order is
// canonicalized — both models are permutation-invariant in the contender
// set (fTC uses only its cardinality; the ILP objective sums symmetric
// per-contender terms), so provider submissions that list the same
// co-runners in a different order hit the same cache entry.
//
// The key is a SHA-256 over an unambiguous field-tagged rendering, so
// adjacent numeric fields cannot alias and arbitrarily large requests
// address a fixed-size key.
func CanonicalKey(req Request) string {
	return requestKey(wcet.DefaultRegistry(), apiV1, req.asV2())
}

// CanonicalKeyV2 content-addresses a v2 request for the server's result
// cache. It extends the v1 canonicalization (normalized defaults,
// contender order canonicalized) with the selected model list (order kept
// — it is the response order), templates and PTACs. Model names — the
// selected list and rta.model alike — are canonicalized against the
// registry so alias spellings of the same request share an entry;
// template and contender-PTAC order is canonicalized like the contender
// set (every model is permutation-invariant in them).
func CanonicalKeyV2(reg *wcet.Registry, req V2Request) string {
	return requestKey(reg, apiV2, req)
}

// requestKey is the one cache-key rendering: the wire request, tagged
// with the version it arrived on, rendered once and hashed once. Alias
// spellings resolve through reg — the server passes its own, so
// custom-registry aliases collapse like built-in ones. The v2-only part
// (model list, templates, PTACs) is rendered only for v2; the tag keeps a
// v1 request and its v2 view in separate entries, since their responses
// differ in shape. It appends with strconv, not fmt: it runs before
// every cache probe, and fmt would box each counter into an allocation.
func requestKey(reg *wcet.Registry, v apiVersion, req V2Request) string {
	b := make([]byte, 0, 512)
	b = append(b, v...)
	b = strconv.AppendInt(append(b, ";sc="...), int64(req.Scenario), 10)
	b = append(append(b, ";mode="...), canonStallMode(req.StallMode)...)
	b = strconv.AppendBool(append(b, ";drop="...), req.DropContenderInfo)
	b = dsu.AppendKey(append(b, ";a="...), req.Analysed)

	// Contenders render into one scratch buffer, 60-odd bytes each; the
	// stack arrays keep the common case off the heap.
	var scratch [512]byte
	var spanArr [8][2]int
	cs, spans := scratch[:0], spanArr[:0]
	for _, c := range req.Contenders {
		start := len(cs)
		cs = dsu.AppendKey(cs, c)
		spans = append(spans, [2]int{start, len(cs)})
	}
	b = appendSorted(append(b, ";b="...), cs, spans, "|")

	if req.RTA != nil {
		task := req.RTA.Task
		if task.Name == "" {
			task.Name = "analysed"
		}
		// The analysed task's WCETCycles is an output, not an input:
		// exclude it so requests differing only there still collide.
		task.WCETCycles = 0
		b = append(append(b, ";rta="...), canonModel(reg, req.RTA.Model)...)
		b = appendRTATask(append(b, ";t="...), task)
		// Priority ties break by declaration order, so co-resident task
		// order is semantic — keep it.
		for _, o := range req.RTA.Others {
			b = appendRTATask(append(b, ";o="...), o)
		}
	}

	if v == apiV2 {
		models := req.Models
		if len(models) == 0 {
			models = v1Models[:]
		}
		b = append(b, ";models="...)
		for i, m := range models {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, canonModel(reg, m)...)
		}
		if len(req.Templates) > 0 {
			var tps []byte
			spans = spans[:0]
			for _, tp := range req.Templates {
				start := len(tps)
				tps = appendWirePTAC(append(strconv.AppendQuote(tps, tp.Name), ':'), tp.MaxRequests)
				spans = append(spans, [2]int{start, len(tps)})
			}
			b = appendSorted(append(b, ";tp="...), tps, spans, ";tp=")
		}
		if req.AnalysedPTAC != nil {
			b = appendWirePTAC(append(b, ";pa="...), req.AnalysedPTAC)
		}
		if len(req.ContenderPTACs) > 0 {
			var pbs []byte
			spans = spans[:0]
			for _, p := range req.ContenderPTACs {
				start := len(pbs)
				pbs = appendWirePTAC(pbs, p)
				spans = append(spans, [2]int{start, len(pbs)})
			}
			b = appendSorted(append(b, ";pb="...), pbs, spans, ";pb=")
		}
	}

	sum := sha256.Sum256(b)
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// canonModel collapses a model spelling to its canonical name, so "FTC"
// and "ftc" share an entry. Unknown names keep their raw spelling so the
// key stays total — they never reach the cache, Prepare rejects them
// first.
func canonModel(reg *wcet.Registry, name string) string {
	canon, err := reg.Canonical(name)
	if err != nil {
		return name
	}
	return canon
}

func canonStallMode(s string) string {
	if s == "" {
		return "budget"
	}
	return s
}

func appendRTATask(b []byte, t RTATask) []byte {
	b = strconv.AppendQuote(b, t.Name)
	b = strconv.AppendInt(append(b, ",w"...), t.WCETCycles, 10)
	b = strconv.AppendInt(append(b, ",p"...), t.PeriodCycles, 10)
	b = strconv.AppendInt(append(b, ",d"...), t.DeadlineCycles, 10)
	return strconv.AppendInt(append(b, ",pr"...), int64(t.Priority), 10)
}

// appendWirePTAC appends a wire PTAC map as its "path=count" entries in
// byte order, comma-separated.
func appendWirePTAC(b []byte, m map[string]int64) []byte {
	var parts []byte
	spans := make([][2]int, 0, len(m))
	for k, v := range m {
		start := len(parts)
		parts = strconv.AppendInt(append(append(parts, k...), '='), v, 10)
		spans = append(spans, [2]int{start, len(parts)})
	}
	return appendSorted(b, parts, spans, ",")
}

// appendSorted appends the items rendered into buf at spans in the byte
// order of their renderings, separated by sep: the bytes sorting the
// rendered strings and joining them gives, without a string per item.
// It sorts spans in place.
func appendSorted(b, buf []byte, spans [][2]int, sep string) []byte {
	slices.SortFunc(spans, func(x, y [2]int) int {
		return bytes.Compare(buf[x[0]:x[1]], buf[y[0]:y[1]])
	})
	for i, sp := range spans {
		if i > 0 {
			b = append(b, sep...)
		}
		b = append(b, buf[sp[0]:sp[1]]...)
	}
	return b
}

package wcet

import (
	"crypto/sha256"
	"sort"
	"strconv"

	"repro/internal/dsu"
	"repro/internal/platform"
)

// estimateKey content-addresses one (model, input) evaluation for the
// Analyzer's estimate cache: two evaluations share a key iff the model is
// guaranteed to produce the same estimate for both. Unlike the serving
// layer's request keys, the platform characterisation is part of the key —
// experiment sweeps evaluate the same readings on perturbed tables.
type estimateKey struct {
	model string
	input [sha256.Size]byte
}

// inputDigest hashes the canonical rendering of a validated Input. Analyze
// computes it once per call and pairs it with each model name, so a warm
// cell costs one rendering and one hash however many models it asks for.
func inputDigest(in Input) [sha256.Size]byte {
	return sha256.Sum256(appendInput(make([]byte, 0, 512), in))
}

// appendInput is the one estimate-key rendering: field-tagged so adjacent
// numbers cannot alias, and appended with strconv, not fmt, because it
// runs on every Analyze call, cache hits included.
//
// Contender order is canonicalized (all built-in models are
// permutation-invariant in the contender set); template and contender-PTAC
// order follows the same argument. List elements are terminated rather
// than joined, so an empty list and a list of one empty element differ.
func appendInput(b []byte, in Input) []byte {
	b = appendScenario(append(b, "sc="...), in.Scenario)
	b = strconv.AppendInt(append(b, ";mode="...), int64(in.StallMode), 10)
	b = strconv.AppendBool(append(b, ";drop="...), in.DropContenderInfo)
	b = appendLatencies(append(b, ";lat="...), in.Latencies)
	b = dsu.AppendKey(append(b, ";a="...), in.Analysed)
	b = appendSorted(append(b, ";b="...), in.Contenders, dsu.AppendKey)
	b = appendSorted(append(b, ";tp="...), in.Templates, appendTemplate)
	if in.AnalysedPTAC != nil {
		b = appendPTAC(append(b, ";pa="...), in.AnalysedPTAC)
	}
	return appendSorted(append(b, ";pb="...), in.ContenderPTACs, appendPTAC)
}

// appendSorted renders each element terminated by '|', in sorted order.
func appendSorted[T any](b []byte, xs []T, render func([]byte, T) []byte) []byte {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = string(render(nil, x))
	}
	sort.Strings(parts)
	for _, p := range parts {
		b = append(append(b, p...), '|')
	}
	return b
}

// appendScenario renders the tailoring by content, not by label — custom
// scenarios may share a Name (or have none) yet differ in deployment or
// counter-interpretation flags, and those differences change the bounds.
func appendScenario(b []byte, sc Scenario) []byte {
	b = appendName(b, sc.Name)
	b = appendPlacements(append(b, "/code:"...), sc.Deploy.Code)
	b = appendPlacements(append(b, "/data:"...), sc.Deploy.Data)
	b = strconv.AppendBool(append(b, "/cce="...), sc.CodeCountExact)
	return strconv.AppendBool(append(b, "/cdf="...), sc.CacheableDataFloor)
}

// appendPlacements keeps placement order: it is the deployment as given.
func appendPlacements(b []byte, ps []platform.Placement) []byte {
	for _, p := range ps {
		b = strconv.AppendInt(b, int64(p.Target), 10)
		if p.Cacheable {
			b = append(b, '$')
		}
		b = append(b, ',')
	}
	return b
}

// appendLatencies renders every legal path's entry in platform order.
func appendLatencies(b []byte, lat *LatencyTable) []byte {
	for _, t := range platform.Targets {
		for _, o := range platform.Ops {
			if !platform.CanAccess(t, o) {
				continue
			}
			l := lat[t][o]
			b = strconv.AppendInt(b, l.Max, 10)
			b = strconv.AppendInt(append(b, '/'), l.Min, 10)
			b = strconv.AppendInt(append(b, '/'), l.Stall, 10)
			b = append(b, ';')
		}
	}
	return b
}

// appendPTAC renders a count map in platform path order. Validate has
// rejected out-of-range paths before any key is built, so walking the
// target × op grid visits every entry; an explicit zero stays distinct
// from an absent path.
func appendPTAC(b []byte, p PTAC) []byte {
	for _, t := range platform.Targets {
		for _, o := range platform.Ops {
			n, ok := p[AccessPath{Target: t, Op: o}]
			if !ok {
				continue
			}
			b = strconv.AppendInt(b, int64(t), 10)
			b = strconv.AppendInt(append(b, '/'), int64(o), 10)
			b = strconv.AppendInt(append(b, '='), n, 10)
			b = append(b, ',')
		}
	}
	return b
}

func appendTemplate(b []byte, tp Template) []byte {
	return appendPTAC(append(appendName(b, tp.Name), ':'), tp.MaxRequests)
}

// appendName renders a free-form label length-prefixed, so no byte of it
// can be read as a separator.
func appendName(b []byte, s string) []byte {
	return append(append(strconv.AppendInt(b, int64(len(s)), 10), ':'), s...)
}

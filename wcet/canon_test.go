package wcet

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/platform"
)

// keyInput is an Input with every field the estimate key renders set, two
// elements in every list, so a change to any one of them is visible.
func keyInput() Input {
	lat := TC27x()
	pf0co := AccessPath{Target: platform.PF0, Op: platform.Code}
	lmuda := AccessPath{Target: platform.LMU, Op: platform.Data}
	return Input{
		Analysed:   Readings{CCNT: 301000, PS: 40000, DS: 51000, PM: 6100, DMC: 1200, DMD: 400},
		Contenders: []Readings{testContender, {CCNT: 90000, PS: 9000, DS: 8000, PM: 700, DMC: 60, DMD: 5}},
		Templates: []Template{
			{Name: "t1", MaxRequests: PTAC{pf0co: 10, lmuda: 20}},
			{Name: "t2", MaxRequests: PTAC{lmuda: 30}},
		},
		AnalysedPTAC:      PTAC{pf0co: 100, lmuda: 200},
		ContenderPTACs:    []PTAC{{pf0co: 1}, {lmuda: 2}},
		Latencies:         &lat,
		Scenario:          Scenario2(),
		StallMode:         StallBudget,
		DropContenderInfo: false,
	}
}

// cloneInput deep-copies the parts of an Input a mutation may write.
func cloneInput(in Input) Input {
	lat := *in.Latencies
	in.Latencies = &lat
	in.Contenders = append([]Readings(nil), in.Contenders...)
	tps := make([]Template, len(in.Templates))
	for i, tp := range in.Templates {
		tps[i] = Template{Name: tp.Name, MaxRequests: clonePTAC(tp.MaxRequests)}
	}
	in.Templates = tps
	in.AnalysedPTAC = clonePTAC(in.AnalysedPTAC)
	pbs := make([]PTAC, len(in.ContenderPTACs))
	for i, p := range in.ContenderPTACs {
		pbs[i] = clonePTAC(p)
	}
	in.ContenderPTACs = pbs
	in.Scenario.Deploy.Code = append([]platform.Placement(nil), in.Scenario.Deploy.Code...)
	in.Scenario.Deploy.Data = append([]platform.Placement(nil), in.Scenario.Deploy.Data...)
	return in
}

func clonePTAC(p PTAC) PTAC {
	if p == nil {
		return nil
	}
	out := make(PTAC, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// readingFields names every counter of a reading, for per-field mutation.
var readingFields = []struct {
	name string
	ptr  func(*Readings) *int64
}{
	{"CCNT", func(r *Readings) *int64 { return &r.CCNT }},
	{"PS", func(r *Readings) *int64 { return &r.PS }},
	{"DS", func(r *Readings) *int64 { return &r.DS }},
	{"PM", func(r *Readings) *int64 { return &r.PM }},
	{"DMC", func(r *Readings) *int64 { return &r.DMC }},
	{"DMD", func(r *Readings) *int64 { return &r.DMD }},
}

// TestEstimateKeySensitivity changes one Input field at a time: every
// change must give its own key, since a collision would serve another
// input's (possibly optimistic) bound. Reordering the contenders,
// templates or contender PTACs must not change the key.
func TestEstimateKeySensitivity(t *testing.T) {
	type mutation struct {
		name string
		edit func(*Input)
	}
	var muts []mutation
	add := func(name string, edit func(*Input)) { muts = append(muts, mutation{name, edit}) }

	for _, f := range readingFields {
		f := f
		add("analysed "+f.name, func(in *Input) { *f.ptr(&in.Analysed)++ })
		add("contender "+f.name, func(in *Input) { *f.ptr(&in.Contenders[1])++ })
	}
	add("one contender fewer", func(in *Input) { in.Contenders = in.Contenders[:1] })
	for _, to := range AccessPaths() {
		to := to
		entry := func(in *Input) *platform.Latency { return &in.Latencies[to.Target][to.Op] }
		add("latency "+to.String()+" Max", func(in *Input) { entry(in).Max++ })
		add("latency "+to.String()+" Min", func(in *Input) { entry(in).Min++ })
		add("latency "+to.String()+" Stall", func(in *Input) { entry(in).Stall++ })
	}
	add("scenario name", func(in *Input) { in.Scenario.Name = "scenario2b" })
	add("unnamed scenario", func(in *Input) { in.Scenario.Name = "" })
	for _, class := range []string{"code", "data"} {
		class := class
		pls := func(in *Input) []platform.Placement {
			if class == "code" {
				return in.Scenario.Deploy.Code
			}
			return in.Scenario.Deploy.Data
		}
		base := keyInput()
		for i := range pls(&base) {
			i := i
			add(fmt.Sprintf("%s placement %d target", class, i), func(in *Input) {
				p := &pls(in)[i]
				p.Target = (p.Target + 1) % platform.NumTargets
			})
			add(fmt.Sprintf("%s placement %d cacheability", class, i), func(in *Input) {
				p := &pls(in)[i]
				p.Cacheable = !p.Cacheable
			})
		}
	}
	add("one data placement fewer", func(in *Input) { in.Scenario.Deploy.Data = in.Scenario.Deploy.Data[1:] })
	add("CodeCountExact", func(in *Input) { in.Scenario.CodeCountExact = false })
	add("CacheableDataFloor", func(in *Input) { in.Scenario.CacheableDataFloor = false })
	add("stall mode", func(in *Input) { in.StallMode = StallExact })
	add("drop contender info", func(in *Input) { in.DropContenderInfo = true })

	pf1co := AccessPath{Target: platform.PF1, Op: platform.Code}
	lmuda := AccessPath{Target: platform.LMU, Op: platform.Data}
	add("template name", func(in *Input) { in.Templates[0].Name = "t3" })
	add("template budget", func(in *Input) { in.Templates[1].MaxRequests[lmuda]++ })
	add("template path added", func(in *Input) { in.Templates[1].MaxRequests[pf1co] = 0 })
	add("one template fewer", func(in *Input) { in.Templates = in.Templates[:1] })
	add("no templates", func(in *Input) { in.Templates = nil })
	add("analysed PTAC count", func(in *Input) { in.AnalysedPTAC[lmuda]++ })
	add("analysed PTAC path added", func(in *Input) { in.AnalysedPTAC[pf1co] = 0 })
	add("analysed PTAC empty", func(in *Input) { in.AnalysedPTAC = PTAC{} })
	add("analysed PTAC absent", func(in *Input) { in.AnalysedPTAC = nil })
	add("contender PTAC count", func(in *Input) { in.ContenderPTACs[1][lmuda]++ })
	add("contender PTAC path added", func(in *Input) { in.ContenderPTACs[0][pf1co] = 0 })
	add("one contender PTAC fewer", func(in *Input) { in.ContenderPTACs = in.ContenderPTACs[:1] })
	add("one empty contender PTAC", func(in *Input) { in.ContenderPTACs = []PTAC{{}} })
	add("no contender PTACs", func(in *Input) { in.ContenderPTACs = nil })

	seen := map[[32]byte]string{inputDigest(keyInput()): "base"}
	for _, m := range muts {
		in := cloneInput(keyInput())
		m.edit(&in)
		d := inputDigest(in)
		if prev, dup := seen[d]; dup {
			t.Errorf("%s: same key as %s", m.name, prev)
			continue
		}
		seen[d] = m.name
	}

	base := inputDigest(keyInput())
	for _, p := range []struct {
		name string
		edit func(*Input)
	}{
		{"contenders", func(in *Input) { in.Contenders[0], in.Contenders[1] = in.Contenders[1], in.Contenders[0] }},
		{"templates", func(in *Input) { in.Templates[0], in.Templates[1] = in.Templates[1], in.Templates[0] }},
		{"contender PTACs", func(in *Input) {
			in.ContenderPTACs[0], in.ContenderPTACs[1] = in.ContenderPTACs[1], in.ContenderPTACs[0]
		}},
	} {
		in := cloneInput(keyInput())
		p.edit(&in)
		if inputDigest(in) != base {
			t.Errorf("permuting the %s changed the key", p.name)
		}
	}
}

// TestWarmAnalyzeAllocs guards the warm path: a two-model Analyze whose
// estimates are both cached renders and hashes its input once, probes the
// cache inline and starts no goroutine.
func TestWarmAnalyzeAllocs(t *testing.T) {
	an := MustNewAnalyzer(WithCache(16))
	ctx := context.Background()
	req := testRequest()
	if _, err := an.Analyze(ctx, req); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := an.Analyze(ctx, req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("warm two-model Analyze: %.0f allocs, want <= 40", allocs)
	}
	if hits, misses := an.CacheStats(); misses != 2 || hits < 200 {
		t.Errorf("cache hits/misses = %d/%d, want >= 200/2", hits, misses)
	}
}

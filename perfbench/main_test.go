package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of empty sample = %v, want 0", got)
	}
}

// Every seed must yield a pool of distinct, well-formed grids, and the
// same seed the same pool.
func TestCampaignPoolDeterministic(t *testing.T) {
	for seed := int64(0); seed < 500; seed++ {
		pool := campaignPool(seed)
		again := campaignPool(seed)
		if len(pool) != campaignPoolSize {
			t.Fatalf("seed %d: pool of %d grids", seed, len(pool))
		}
		for k, g := range pool {
			if !bytes.Equal(g.spec, again[k].spec) || strings.Join(g.args, " ") != strings.Join(again[k].args, " ") {
				t.Fatalf("seed %d grid %d differs between calls", seed, k)
			}
			perturb := g.args[len(g.args)-1]
			if n := len(strings.Split(perturb, ",")); n != 3 {
				t.Fatalf("seed %d grid %d: %d perturbations in %q, want 3", seed, k, n, perturb)
			}
		}
	}
}

// The serve stream is a pure function of (seed, index): the same seed
// generates the same requests, another seed other ones.
func TestServeGenDeterministic(t *testing.T) {
	a, err := newServeGen(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newServeGen(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newServeGen(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.hot) != hotSetSize {
		t.Fatalf("hot set of %d queries, want %d", len(a.hot), hotSetSize)
	}
	classes := map[int]int{}
	differs := false
	for i := uint64(0); i < 5000; i++ {
		ra, rb, rc := a.request(i), b.request(i), c.request(i)
		if !bytes.Equal(ra.body, rb.body) || ra.class != rb.class {
			t.Fatalf("request %d differs between generators of one seed", i)
		}
		differs = differs || !bytes.Equal(ra.body, rc.body)
		classes[ra.class]++
	}
	if !differs {
		t.Error("seeds 7 and 8 generated identical streams")
	}
	if hot := float64(classes[classHot]) / 5000; hot < 0.75 || hot > 0.85 {
		t.Errorf("hot share %.3f, want about 0.8", hot)
	}
	if s2 := classes[classMissS2]; s2 != 5000/missBlock {
		t.Errorf("%d scenario-2 misses, want %d", s2, 5000/missBlock)
	}

	// Probes replace every probeEvery-th request and leave the rest.
	probed := withProbes(a.request)
	for i := uint64(0); i < 1000; i++ {
		r := probed(i)
		if isProbe := i%probeEvery == probeEvery-1; isProbe != (r.class == classProbe) {
			t.Fatalf("request %d: probe %t, class %d", i, isProbe, r.class)
		}
		if r.class != classProbe && !bytes.Equal(r.body, a.request(i).body) {
			t.Fatalf("request %d changed by withProbes", i)
		}
	}
}

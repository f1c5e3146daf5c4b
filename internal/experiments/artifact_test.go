package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/campaign"
)

// fuzzPoints builds the points one FuzzArtifactEncoding input describes:
// a point with every field set and nEst estimates (-1 is a nil list, 0
// an empty one), and a bare point that keeps the omitted fields omitted.
func fuzzPoints(table, pert, level, name string, scenario int, cycles int64, ratioBits uint64, nEst int8) []PointJSON {
	ratio := math.Float64frombits(ratioBits)
	full := PointJSON{Table: table, Perturbation: pert, Scenario: scenario, Level: level, IsolationCycles: cycles}
	if n := int(nEst)%5 - 1; n >= 0 {
		full.Estimates = []EstimateJSON{}
		for i := 0; i < n; i++ {
			full.Estimates = append(full.Estimates, EstimateJSON{
				Name: name, Model: level + name,
				IsolationCycles: cycles, ContentionCycles: -cycles, WCETCycles: int64(i),
				Ratio: ratio * float64(i+1),
			})
		}
	}
	bare := PointJSON{Scenario: -scenario, Level: name}
	return []PointJSON{full, bare}
}

// FuzzArtifactEncoding checks the direct encoder byte for byte against
// encoding/json, which it replaces: EncodeArtifact against
// json.MarshalIndent of the Artifact plus a newline, and AppendPoint's
// compact form against json.Marshal. Both sides must also agree on
// failing: a NaN or infinite ratio is an error. The committed corpus
// covers escaping (<, &, U+2028, control bytes, invalid UTF-8), nil and
// empty estimate lists and ratios at and just below the 1e-6 and 1e21
// format switches.
func FuzzArtifactEncoding(f *testing.F) {
	f.Add("tc27x/default", "slow10", "H-Load", "ilpPtac", 1, int64(123456), math.Float64bits(1.2345), int8(3))
	f.Fuzz(func(t *testing.T, table, pert, level, name string, scenario int, cycles int64, ratioBits uint64, nEst int8) {
		points := fuzzPoints(table, pert, level, name, scenario, cycles, ratioBits, nEst)
		want, wantErr := json.MarshalIndent(Artifact{Points: points}, "", "  ")
		got, err := EncodeArtifact(points)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("EncodeArtifact error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if want = append(want, '\n'); !bytes.Equal(got, want) {
			t.Fatalf("EncodeArtifact differs from encoding/json:\n got: %q\nwant: %q", got, want)
		}
		for i := range points {
			compact, err := AppendPoint(nil, &points[i], false)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := json.Marshal(points[i]); !bytes.Equal(compact, want) {
				t.Fatalf("compact point differs from json.Marshal:\n got: %q\nwant: %q", compact, want)
			}
		}
	})
}

func TestEncodeArtifactEmpty(t *testing.T) {
	for _, points := range [][]PointJSON{nil, {}} {
		want, _ := json.MarshalIndent(Artifact{Points: []PointJSON{}}, "", "  ")
		got, err := EncodeArtifact(points)
		if err != nil || string(got) != string(want)+"\n" {
			t.Fatalf("EncodeArtifact(%#v) = %q, %v; want %q", points, got, err, want)
		}
	}
}

// BenchmarkEncodeArtifact encodes a real 24-cell campaign artifact: the
// default two models over 2 scenarios, 3 levels and 4 latency variants.
func BenchmarkEncodeArtifact(b *testing.B) {
	grid := Grid{
		AppIterations: 60,
		Perturbations: []Perturbation{
			{},
			ScaleLatencies("up10", 110, 100),
			ScaleLatencies("up20", 120, 100),
			ScaleLatencies("down10", 90, 100),
		},
	}
	pts, err := NewRunner(campaign.New(0)).Sweep(context.Background(), lat, grid)
	if err != nil {
		b.Fatal(err)
	}
	points := WirePoints(pts)
	data, err := EncodeArtifact(points)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeArtifact(points); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(data)), "artifact_bytes")
}

package service

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// The golden fixtures freeze the /v1 wire format as it was before the
// service was rewired onto the wcet SDK. Any byte of drift — field order,
// indentation, a renamed model label — breaks deployed integrations, so
// the test compares raw bodies, not decoded structures. Regenerate with
//
//	go test ./internal/service -run TestV1Golden -update-golden
//
// only for a deliberate, versioned wire change.
var updateGolden = flag.Bool("update-golden", false, "rewrite the /v1 golden fixtures from current behaviour")

// goldenRequests are the recorded /v1/wcet conversations: every request
// shape the v1 API supports (defaults, explicit stall mode, the ILP
// ablation, multiple contenders, both RTA model selectors).
var goldenRequests = []struct {
	name string
	body string
}{
	{"basic_scenario1", `{
  "scenario": 1,
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}`},
	{"scenario2_budget", `{
  "scenario": 2,
  "stallMode": "budget",
  "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}`},
	{"drop_contender_info", `{
  "scenario": 1,
  "dropContenderInfo": true,
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
}`},
	{"two_contenders", `{
  "scenario": 1,
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [
    {"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000},
    {"CCNT": 220000, "PS": 21000, "DS": 16000, "PM": 2500}
  ]
}`},
	{"rta_default_model", `{
  "scenario": 1,
  "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}],
  "rta": {
    "task": {"name": "airbagCtl", "periodCycles": 2000000, "priority": 2},
    "others": [{"name": "cruiseCtl", "wcetCycles": 50000, "periodCycles": 500000, "priority": 1}]
  }
}`},
	{"rta_ftc_model", `{
  "scenario": 2,
  "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
  "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}],
  "rta": {
    "model": "ftc",
    "task": {"periodCycles": 900000, "deadlineCycles": 800000, "priority": 1},
    "others": [{"name": "housekeeping", "wcetCycles": 120000, "periodCycles": 1000000, "priority": 3}]
  }
}`},
}

// goldenBatch is the recorded /v1/batch conversation, including a
// malformed cell whose error string is part of the wire contract.
const goldenBatch = `{
  "requests": [
    {
      "scenario": 1,
      "analysed":   {"CCNT": 157800, "PS": 18000, "DS": 27000, "PM": 3000},
      "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
    },
    {
      "scenario": 2,
      "analysed":   {"CCNT": 301000, "PS": 40000, "DS": 51000, "PM": 6100, "DMC": 1200, "DMD": 400},
      "contenders": [{"CCNT": 500000, "PS": 50000, "DS": 60000, "PM": 8000}]
    },
    {
      "scenario": 7,
      "analysed":   {"CCNT": 1000, "PS": 100, "DS": 100}
    }
  ]
}`

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", name+".golden.json")
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(t, name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (run with -update-golden to record): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: response drifted from the recorded v1 wire format\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// postGolden posts one recorded /v1/wcet request and returns the body.
func postGolden(t *testing.T, url, body string) []byte {
	t.Helper()
	resp, err := http.Post(url+"/v1/wcet", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestV1GoldenWCET asserts POST /v1/wcet answers byte-identically to the
// recorded fixtures.
func TestV1GoldenWCET(t *testing.T) {
	srv := New(Config{}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, tc := range goldenRequests {
		t.Run(tc.name, func(t *testing.T) {
			checkGolden(t, "v1_wcet_"+tc.name, postGolden(t, ts.URL, tc.body))
		})
	}
}

// TestV1GoldenParallelWorkers asserts the /v1 wire format is byte-
// identical when a wide server (an 8-worker campaign engine) answers the
// recorded requests concurrently: the solves then share the pooled model
// builders and LP solvers, and the fixtures must still match exactly,
// without ever being rewritten from this run.
func TestV1GoldenParallelWorkers(t *testing.T) {
	srv := New(Config{Workers: 8}, nil)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close) // after the parallel subtests, unlike defer

	for _, tc := range goldenRequests {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := postGolden(t, ts.URL, tc.body)
			want, err := os.ReadFile(goldenPath(t, "v1_wcet_"+tc.name))
			if err != nil {
				t.Fatalf("reading fixture: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s: concurrent solves drifted from the recorded v1 wire format\ngot:\n%s\nwant:\n%s",
					tc.name, got, want)
			}
		})
	}
}

// TestV1GoldenBatch asserts POST /v1/batch answers byte-identically,
// per-cell errors included.
func TestV1GoldenBatch(t *testing.T) {
	srv := New(Config{}, nil)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader([]byte(goldenBatch)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "v1_batch", buf.Bytes())
}

// TestV1GoldenCLI asserts the cmd/wcet path (service.RunCLI) emits exactly
// the daemon's bytes for the same requests — the CLI/daemon no-drift
// guarantee, now also pinned against the recorded fixtures.
func TestV1GoldenCLI(t *testing.T) {
	for _, tc := range goldenRequests {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := RunCLI(bytes.NewReader([]byte(tc.body)), &out); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, "v1_wcet_"+tc.name, out.Bytes())
		})
	}
}

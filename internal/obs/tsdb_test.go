package obs

import (
	"math"
	"testing"
	"time"
)

func testTiers() []TierSpec {
	return []TierSpec{
		{Name: "raw", Step: 0, Retain: 100},
		{Name: "10s", Step: 10 * time.Second, Retain: 100},
	}
}

func TestTSDBAppendQuery(t *testing.T) {
	db, err := OpenTSDB("", testTiers())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := db.Append(int64(1000*i), map[string]float64{"a": float64(i), "b": 10}); err != nil {
			t.Fatal(err)
		}
	}
	pts := db.Query("a", 0, 0, 0)
	if len(pts) != 5 {
		t.Fatalf("len = %d, want 5", len(pts))
	}
	if pts[4].V != 4 {
		t.Fatalf("last = %v", pts[4])
	}
	// Range query.
	pts = db.Query("a", 1000, 3000, 0)
	if len(pts) != 3 || pts[0].T != 1000 || pts[2].T != 3000 {
		t.Fatalf("range query: %+v", pts)
	}
	// Unknown series.
	if pts := db.Query("zzz", 0, 0, 0); len(pts) != 0 {
		t.Fatalf("unknown series returned %d points", len(pts))
	}
}

func TestTSDBPrefixSumAndMultiPattern(t *testing.T) {
	db, _ := OpenTSDB("", testTiers())
	snap := map[string]float64{
		`req{endpoint="a"}`: 3,
		`req{endpoint="b"}`: 4,
		"other":             100,
	}
	if err := db.Append(1000, snap); err != nil {
		t.Fatal(err)
	}
	pts := db.Query("req*", 0, 0, 0)
	if len(pts) != 1 || pts[0].V != 7 {
		t.Fatalf("prefix sum: %+v", pts)
	}
}

func TestTSDBDownsamplingTiers(t *testing.T) {
	db, _ := OpenTSDB("", []TierSpec{
		{Name: "raw", Step: 0, Retain: 4},
		{Name: "10s", Step: 10 * time.Second, Retain: 100},
	})
	// 60 samples at 1s cadence; raw retains ~the last few, the 10s tier
	// keeps one in ten and covers the whole window.
	for i := 0; i < 60; i++ {
		if err := db.Append(int64(1000*i), map[string]float64{"a": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pts := db.Query("a", 0, 0, 0)
	if len(pts) < 6 {
		t.Fatalf("merged query too small: %d", len(pts))
	}
	if pts[0].T > 10_000 {
		t.Fatalf("coarse tier did not preserve old samples: first T = %d", pts[0].T)
	}
	if pts[len(pts)-1].T != 59_000 {
		t.Fatalf("newest sample missing: last T = %d", pts[len(pts)-1].T)
	}
	// Step reduction.
	stepped := db.Query("a", 0, 0, 30_000)
	if len(stepped) > 3 {
		t.Fatalf("step reduction kept %d points", len(stepped))
	}
}

func TestTSDBPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenTSDB(dir, testTiers())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := db.Append(int64(1000*i), map[string]float64{"c": float64(i * 10)}); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: simulate kill -9 (OS has the bytes; fds just vanish).
	db2, err := OpenTSDB(dir, testTiers())
	if err != nil {
		t.Fatal(err)
	}
	pts := db2.Query("c", 0, 0, 0)
	if len(pts) != 20 {
		t.Fatalf("replayed %d points, want 20", len(pts))
	}
	if pts[19].V != 190 {
		t.Fatalf("last = %+v", pts[19])
	}
	// Appends continue after the replayed window.
	if err := db2.Append(30_000, map[string]float64{"c": 300}); err != nil {
		t.Fatal(err)
	}
	if pts := db2.Query("c", 0, 0, 0); len(pts) != 21 {
		t.Fatalf("after resume: %d points", len(pts))
	}
	db2.Close()
}

func TestTSDBSkipsNaNAndBackwardsClock(t *testing.T) {
	db, _ := OpenTSDB("", testTiers())
	if err := db.Append(5000, map[string]float64{"a": 1, "bad": math.NaN(), "inf": math.Inf(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(4000, map[string]float64{"a": 2}); err != nil {
		t.Fatal(err)
	}
	if got := db.Series(); len(got) != 1 || got[0] != "a" {
		t.Fatalf("series = %v", got)
	}
	if pts := db.Query("a", 0, 0, 0); len(pts) != 1 || pts[0].V != 1 {
		t.Fatalf("backwards clock sample not skipped: %+v", pts)
	}
}

func TestTSDBRetentionBounded(t *testing.T) {
	db, _ := OpenTSDB("", []TierSpec{{Name: "raw", Step: 0, Retain: 10}})
	for i := 0; i < 1000; i++ {
		if err := db.Append(int64(i), map[string]float64{"a": 1}); err != nil {
			t.Fatal(err)
		}
	}
	if pts := db.Query("a", 0, 0, 0); len(pts) > 13 {
		t.Fatalf("retention not enforced: %d points in memory", len(pts))
	}
}

package trace

import (
	"testing"
	"testing/quick"

	"repro/internal/platform"
)

func acc(k Kind, addr uint32) Access { return Access{Kind: k, Addr: addr} }

func TestKindString(t *testing.T) {
	if Fetch.String() != "fetch" || Load.String() != "load" || Store.String() != "store" {
		t.Errorf("kind strings: %v %v %v", Fetch, Load, Store)
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("invalid kind string = %q", Kind(9))
	}
}

func TestAccessIsData(t *testing.T) {
	if acc(Fetch, 0).IsData() {
		t.Error("fetch reported as data")
	}
	if !acc(Load, 0).IsData() || !acc(Store, 0).IsData() {
		t.Error("load/store not reported as data")
	}
}

func TestSliceSource(t *testing.T) {
	accs := []Access{acc(Fetch, 1), acc(Load, 2), acc(Store, 3)}
	s := NewSlice(accs)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	for i, want := range accs {
		got, ok := s.Next()
		if !ok || got != want {
			t.Fatalf("Next %d = %+v ok=%v, want %+v", i, got, ok, want)
		}
	}
	if _, ok := s.Next(); ok {
		t.Error("Next past end returned ok")
	}
	s.Reset()
	if got, ok := s.Next(); !ok || got != accs[0] {
		t.Errorf("after Reset, Next = %+v ok=%v", got, ok)
	}
}

func TestGenSource(t *testing.T) {
	// Step i emits i accesses (step 0 is empty) at a cursor the steps
	// carry; Reset must zero it so a second pass replays the first.
	var cursor uint32
	g := NewGen(4, func(i int, buf []Access) []Access {
		for j := 0; j < i; j++ {
			buf = append(buf, acc(Load, cursor))
			cursor++
		}
		return buf
	}, func() { cursor = 0 })
	want := []Access{acc(Load, 0), acc(Load, 1), acc(Load, 2), acc(Load, 3), acc(Load, 4), acc(Load, 5)}
	g.Next()
	g.Next()
	g.Next() // a partial drain that stops mid-step
	for pass := 0; pass < 2; pass++ {
		got := Collect(g)
		if len(got) != len(want) {
			t.Fatalf("pass %d: %d accesses, want %d", pass, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("pass %d: access %d = %+v, want %+v", pass, i, got[i], want[i])
			}
		}
	}
	if _, ok := NewGen(0, nil, nil).Next(); ok {
		t.Error("a zero-step Gen yielded an access")
	}
}

func TestCollectResets(t *testing.T) {
	s := NewSlice([]Access{acc(Fetch, 1), acc(Load, 2)})
	s.Next() // advance; Collect must still see everything
	got := Collect(s)
	if len(got) != 2 {
		t.Fatalf("Collect returned %d accesses, want 2", len(got))
	}
	// Source must be rewound after Collect.
	if a, ok := s.Next(); !ok || a != acc(Fetch, 1) {
		t.Errorf("source not reset after Collect: %+v ok=%v", a, ok)
	}
}

func TestRepeatBounded(t *testing.T) {
	s := NewSlice([]Access{acc(Fetch, 1), acc(Load, 2)})
	r := NewRepeat(s, 3)
	got := Collect(r)
	if len(got) != 6 {
		t.Fatalf("3 passes over 2 accesses yielded %d", len(got))
	}
	for i, a := range got {
		want := acc(Fetch, 1)
		if i%2 == 1 {
			want = acc(Load, 2)
		}
		if a != want {
			t.Errorf("access %d = %+v, want %+v", i, a, want)
		}
	}
}

func TestRepeatUnboundedKeepsProducing(t *testing.T) {
	s := NewSlice([]Access{acc(Fetch, 1)})
	r := NewRepeat(s, 0)
	for i := 0; i < 1000; i++ {
		if _, ok := r.Next(); !ok {
			t.Fatalf("unbounded repeat ended at %d", i)
		}
	}
}

func TestRepeatEmptyInnerTerminates(t *testing.T) {
	r := NewRepeat(NewSlice(nil), 0)
	if _, ok := r.Next(); ok {
		t.Error("repeat over empty source produced an access")
	}
}

func TestRepeatReset(t *testing.T) {
	r := NewRepeat(NewSlice([]Access{acc(Fetch, 1)}), 2)
	if got := len(Collect(r)); got != 2 {
		t.Fatalf("first drain = %d", got)
	}
	if got := len(Collect(r)); got != 2 {
		t.Errorf("drain after reset = %d, want 2", got)
	}
}

func TestConcat(t *testing.T) {
	c := NewConcat(
		NewSlice([]Access{acc(Fetch, 1)}),
		NewSlice(nil),
		NewSlice([]Access{acc(Load, 2), acc(Store, 3)}),
	)
	got := Collect(c)
	if len(got) != 3 || got[0].Addr != 1 || got[1].Addr != 2 || got[2].Addr != 3 {
		t.Errorf("Concat yielded %+v", got)
	}
	// Second drain after the implicit reset must match.
	if again := Collect(c); len(again) != 3 {
		t.Errorf("Concat after reset yielded %d", len(again))
	}
}

func TestAnalyze(t *testing.T) {
	accs := []Access{
		{Gap: 5, Kind: Fetch, Addr: platform.PFlash0Base},
		{Gap: 2, Kind: Fetch, Addr: platform.PSPRAddr(0, 0)},
		{Kind: Load, Addr: platform.LMUBase},
		{Kind: Store, Addr: platform.Uncached(platform.LMUBase)},
		{Kind: Load, Addr: platform.DFlashBase},
		{Kind: Load, Addr: 0xDEAD_0000}, // unmapped
	}
	st := Analyze(NewSlice(accs))
	if st.Fetches != 2 || st.Loads != 3 || st.Stores != 1 {
		t.Errorf("counts: %+v", st)
	}
	if st.GapCycles != 7 {
		t.Errorf("GapCycles = %d, want 7", st.GapCycles)
	}
	if st.Scratchpad != 1 {
		t.Errorf("Scratchpad = %d, want 1", st.Scratchpad)
	}
	if st.Invalid != 1 {
		t.Errorf("Invalid = %d, want 1", st.Invalid)
	}
	if st.SRI[platform.TargetOp{Target: platform.PF0, Op: platform.Code}] != 1 {
		t.Errorf("pf0/co = %d, want 1", st.SRI[platform.TargetOp{Target: platform.PF0, Op: platform.Code}])
	}
	if st.SRI[platform.TargetOp{Target: platform.LMU, Op: platform.Data}] != 2 {
		t.Errorf("lmu/da = %d, want 2", st.SRI[platform.TargetOp{Target: platform.LMU, Op: platform.Data}])
	}
	if st.SRI[platform.TargetOp{Target: platform.DFL, Op: platform.Data}] != 1 {
		t.Errorf("dfl/da = %d, want 1", st.SRI[platform.TargetOp{Target: platform.DFL, Op: platform.Data}])
	}
	if st.Total() != 6 {
		t.Errorf("Total = %d", st.Total())
	}
	if s := st.String(); s == "" {
		t.Error("empty Stats string")
	}
}

// Property: Collect(NewRepeat(s, n)) has exactly n*len(s) accesses for any
// non-empty s and small n.
func TestRepeatLengthProperty(t *testing.T) {
	f := func(raw []byte, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(nRaw%4) + 1
		accs := make([]Access, len(raw))
		for i, b := range raw {
			accs[i] = Access{Kind: Kind(int(b) % 3), Addr: uint32(b)}
		}
		r := NewRepeat(NewSlice(accs), n)
		return len(Collect(r)) == n*len(accs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: a Source yields the same stream after Reset.
func TestDeterminismProperty(t *testing.T) {
	f := func(raw []uint32) bool {
		accs := make([]Access, len(raw))
		for i, v := range raw {
			accs[i] = Access{Kind: Kind(int(v) % 3), Addr: v, Gap: int64(v % 16)}
		}
		s := NewSlice(accs)
		first := Collect(s)
		second := Collect(s)
		if len(first) != len(second) {
			return false
		}
		for i := range first {
			if first[i] != second[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

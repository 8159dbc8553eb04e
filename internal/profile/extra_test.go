package profile

import (
	"strings"
	"testing"
)

func TestPairAndKeyStrings(t *testing.T) {
	p := Pair{Taken: 3, NotTaken: 1}
	if p.String() != "3/1" {
		t.Fatalf("pair string %q", p.String())
	}
	var k PathKey
	k = k<<16 | PathKey(pathElem(2, true))
	k = k<<16 | PathKey(pathElem(5, false))
	s := k.String()
	if !strings.Contains(s, "b5:N") || !strings.Contains(s, "b2:T") {
		t.Fatalf("path key string %q", s)
	}
}

func TestNumSitesAccessors(t *testing.T) {
	if LocalFromStreams(NewStreams(7), 2).NumSites() != 7 {
		t.Fatal("local NumSites")
	}
	if NewGlobalHistory(5, 2).NumSites() != 5 {
		t.Fatal("global NumSites")
	}
	if NewPathHistory(3, 2).NumSites() != 3 {
		t.Fatal("path NumSites")
	}
	if NewStreams(4).NumSites() != 4 {
		t.Fatal("streams NumSites")
	}
}

func TestStreams(t *testing.T) {
	st := NewStreams(2)
	outcomes := []bool{true, false, false, true, true}
	for _, o := range outcomes {
		st.RecordBranch(1, o)
	}
	st.RecordBranch(0, true)
	if st.Total() != 6 {
		t.Fatalf("total = %d", st.Total())
	}
	s1 := st.Site(1)
	if s1.Len() != len(outcomes) {
		t.Fatalf("len = %d", s1.Len())
	}
	for i, o := range outcomes {
		if s1.Get(i) != o {
			t.Fatalf("bit %d = %v, want %v", i, s1.Get(i), o)
		}
	}
	if st.Site(0).Len() != 1 || !st.Site(0).Get(0) {
		t.Fatal("site 0 stream wrong")
	}
}

func TestStreamCrossesWordBoundary(t *testing.T) {
	var s Stream
	for i := 0; i < 200; i++ {
		s.Append(i%3 == 0)
	}
	if s.Len() != 200 {
		t.Fatalf("len = %d", s.Len())
	}
	for i := 0; i < 200; i++ {
		if s.Get(i) != (i%3 == 0) {
			t.Fatalf("bit %d wrong", i)
		}
	}
}

func TestGlobalProjectAndFillRates(t *testing.T) {
	h := NewGlobalHistory(2, 3)
	t0, t1 := int32(0), int32(1)
	seq := []bool{true, false, true, true, false, true, false, false, true, true}
	for _, o := range seq {
		h.RecordBranch(t0, o)
		h.RecordBranch(t1, !o)
	}
	proj := h.Project(0, 2)
	var tot uint64
	for _, p := range proj {
		tot += p.Total()
	}
	m, total := h.SiteMisses(0)
	if tot != total {
		t.Fatalf("projection total %d != site total %d", tot, total)
	}
	if m > total {
		t.Fatal("misses > total")
	}
	frs := h.FillRates()
	if len(frs) != 3 {
		t.Fatalf("fill rates = %d", len(frs))
	}
	for i := 1; i < len(frs); i++ {
		if frs[i].Rate() > frs[i-1].Rate()+1e-9 {
			t.Fatal("global fill rate must not grow with history length")
		}
	}
	var zero FillRate
	if zero.Rate() != 0 {
		t.Fatal("empty fill rate must be 0")
	}
}

func TestHistoryValidationPanics(t *testing.T) {
	mustPanic := func(fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatal("want panic")
			}
		}()
		fn()
	}
	mustPanic(func() { NewGlobalHistory(1, 0) })
	mustPanic(func() { NewGlobalHistory(1, 17) })
	mustPanic(func() { NewPathHistory(1, 0) })
	mustPanic(func() { NewPathHistory(1, 5) })
	mustPanic(func() { LocalFromStreams(NewStreams(1), 17) })
	h := localOf(3, "11111")
	mustPanic(func() { h.Project(0, 4) })
	mustPanic(func() { h.Project(0, 0) })
	ph := NewPathHistory(1, 2)
	ph.RecordBranch(0, true)
	mustPanic(func() { ph.ProjectPaths(0, 3) })
}

func TestPathElemOverflowPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: want panic for oversized site id", name)
			}
		}()
		fn()
	}
	// Site MaxSites would encode as 0x10000: an empty low slot plus a bit
	// spilled into the previous element.
	for _, s := range []int32{MaxSites, 1 << 15} {
		mustPanic("RecordBranch", func() { NewPathHistory(MaxSites+2, 2).RecordBranch(s, true) })
		mustPanic("RecordRun", func() { NewPathHistory(MaxSites+2, 2).RecordRun(s, false, 3) })
	}
	// The largest valid site round-trips through a path key in either
	// direction, beside a neighbour element it must not disturb.
	const last = MaxSites - 1
	for _, taken := range []bool{false, true} {
		k := PathKey(pathElem(5, !taken))<<16 | PathKey(pathElem(last, taken))
		if s, d, ok := k.Elem(0); !ok || s != last || d != taken {
			t.Fatalf("elem 0 = (%d, %v, %v), want (%d, %v, true)", s, d, ok, last, taken)
		}
		if s, d, ok := k.Elem(1); !ok || s != 5 || d != !taken {
			t.Fatalf("elem 1 = (%d, %v, %v), want (5, %v, true)", s, d, ok, !taken)
		}
	}
	h := NewPathHistory(MaxSites, 1)
	h.RecordBranch(last, true)
	h.RecordRun(last, true, 4)
	if h.Recorded() != 4 {
		t.Fatalf("recorded = %d, want 4", h.Recorded())
	}
}

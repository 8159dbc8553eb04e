package profile

import (
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

func feed(c trace.Collector, site int32, outcomes string) {
	for _, ch := range outcomes {
		c.RecordBranch(site, ch == '1')
	}
}

func TestPairBasics(t *testing.T) {
	var p Pair
	p.Add(true)
	p.Add(true)
	p.Add(false)
	if p.Total() != 3 || !p.MajorityTaken() || p.Hits() != 2 || p.Misses() != 1 {
		t.Fatalf("pair = %+v", p)
	}
	// Tie predicts not-taken.
	q := Pair{Taken: 5, NotTaken: 5}
	if q.MajorityTaken() {
		t.Fatal("tie must predict not-taken")
	}
	if q.Hits() != 5 || q.Misses() != 5 {
		t.Fatal("tie hits/misses wrong")
	}
}

func TestLocalHistoryAlternating(t *testing.T) {
	h := NewLocalHistory(1, 1)
	// Alternating outcomes: after 1-bit warm-up, pattern 0 is always
	// followed by taken and pattern 1 by not-taken.
	feed(h, 0, "0101010101")
	tab := h.Table(0)
	if tab == nil {
		t.Fatal("no table")
	}
	// pattern 0 (last not taken) → next taken
	if tab[0].NotTaken != 0 || tab[0].Taken == 0 {
		t.Fatalf("pattern 0: %+v", tab[0])
	}
	if tab[1].Taken != 0 || tab[1].NotTaken == 0 {
		t.Fatalf("pattern 1: %+v", tab[1])
	}
	misses, total := h.SiteMisses(0)
	if misses != 0 {
		t.Fatalf("alternating branch with 1-bit history: misses = %d (total %d)", misses, total)
	}
	if h.Recorded() != 9 {
		t.Fatalf("recorded = %d, want 9 (one warm-up)", h.Recorded())
	}
}

func TestLocalHistoryWarmup(t *testing.T) {
	h := NewLocalHistory(1, 3)
	feed(h, 0, "11")
	if h.Recorded() != 0 {
		t.Fatal("events during warm-up must not be recorded")
	}
	if h.Table(0) != nil {
		t.Fatal("table allocated during warm-up")
	}
	feed(h, 0, "111")
	if h.Recorded() != 2 {
		t.Fatalf("recorded = %d, want 2", h.Recorded())
	}
}

func TestLocalHistoryPatternOrder(t *testing.T) {
	h := NewLocalHistory(1, 2)
	// Outcomes: 1 0 then record next under pattern (prev<<1|last) = 0b10.
	feed(h, 0, "101")
	tab := h.Table(0)
	if tab[0b01].Taken != 1 { // history "10": older bit 1 at position1, recent 0 at bit0 → 0b10?
		// Bit 0 is most recent: history after "1,0" is (1<<1|0)=0b10.
		if tab[0b10].Taken != 1 {
			t.Fatalf("table: %+v", tab)
		}
	}
}

func TestProjectConservesCounts(t *testing.T) {
	check := func(seed uint32, n uint8) bool {
		h := NewLocalHistory(1, 4)
		x := seed
		for i := 0; i < int(n)+20; i++ {
			x = x*1664525 + 1013904223
			h.RecordBranch(0, x&0x10000 != 0)
		}
		full := h.Table(0)
		var fullTotal uint64
		for _, p := range full {
			fullTotal += p.Total()
		}
		for j := 1; j <= 4; j++ {
			proj := h.Project(0, j)
			var tot uint64
			for _, p := range proj {
				tot += p.Total()
			}
			if tot != fullTotal {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGlobalHistoryCorrelation(t *testing.T) {
	// Branch 1 always repeats branch 0's last outcome. With a 1-bit global
	// history, branch 1 is perfectly predictable.
	h := NewGlobalHistory(2, 1)
	t0, t1 := int32(0), int32(1)
	pattern := []bool{true, false, false, true, true, true, false}
	for _, o := range pattern {
		h.RecordBranch(t0, o)
		h.RecordBranch(t1, o)
	}
	misses, total := h.SiteMisses(1)
	if total == 0 {
		t.Fatal("no events for site 1")
	}
	if misses != 0 {
		t.Fatalf("correlated branch misses = %d / %d", misses, total)
	}
	// Branch 0 itself is unpredictable from branch 1's outcome only when
	// the pattern is uncorrelated; don't assert on it.
}

func TestPathKeyEncoding(t *testing.T) {
	var k PathKey
	k = k<<16 | PathKey(pathElem(3, true))
	k = k<<16 | PathKey(pathElem(7, false))
	if k.Len() != 2 {
		t.Fatalf("len = %d", k.Len())
	}
	site, taken, ok := k.Elem(0)
	if !ok || site != 7 || taken {
		t.Fatalf("elem0 = %d %v %v", site, taken, ok)
	}
	site, taken, ok = k.Elem(1)
	if !ok || site != 3 || !taken {
		t.Fatalf("elem1 = %d %v %v", site, taken, ok)
	}
	if _, _, ok := k.Elem(2); ok {
		t.Fatal("elem2 should be empty")
	}
	if k.Suffix(1).Len() != 1 {
		t.Fatal("suffix(1) wrong")
	}
	if k.Suffix(4) != k {
		t.Fatal("suffix(4) must be identity here")
	}
}

func TestPathHistoryDistinguishesPaths(t *testing.T) {
	// Branch 2's outcome equals branch 0's outcome two steps ago... simpler:
	// Branch 2 is taken exactly when branch 1 was taken (immediately
	// preceding). Path length 1 captures it perfectly.
	h := NewPathHistory(3, 1)
	t1, t2 := int32(1), int32(2)
	outcomes := []bool{true, false, true, true, false, false, true}
	for _, o := range outcomes {
		h.RecordBranch(t1, o)
		h.RecordBranch(t2, o)
	}
	misses, total := h.SiteMisses(2)
	if total == 0 {
		t.Fatal("no path data for site 2")
	}
	if misses != 0 {
		t.Fatalf("path-predictable branch misses = %d / %d", misses, total)
	}
}

func TestPathProjectConserves(t *testing.T) {
	h := NewPathHistory(2, 3)
	t0, t1 := int32(0), int32(1)
	x := uint32(12345)
	for i := 0; i < 500; i++ {
		x = x*1664525 + 1013904223
		h.RecordBranch(t0, x&4 != 0)
		x = x*1664525 + 1013904223
		h.RecordBranch(t1, x&8 != 0)
	}
	var fullTotal uint64
	for _, p := range h.Table(1) {
		fullTotal += p.Total()
	}
	for j := 1; j <= 3; j++ {
		proj := h.ProjectPaths(1, j)
		var tot uint64
		for _, p := range proj {
			tot += p.Total()
		}
		if tot != fullTotal {
			t.Fatalf("projection %d loses counts: %d != %d", j, tot, fullTotal)
		}
	}
}

func TestFillRates(t *testing.T) {
	h := NewLocalHistory(1, 3)
	// Always taken: only one 3-bit pattern (111) ever used.
	feed(h, 0, "1111111111")
	rates := h.FillRates()
	if len(rates) != 3 {
		t.Fatalf("rates = %v", rates)
	}
	// length 1: 1 of 2 slots → 50%; length 2: 1 of 4 → 25%; length 3: 1/8.
	want := []float64{50, 25, 12.5}
	for i, w := range want {
		if got := rates[i].Rate(); got != w {
			t.Fatalf("fill rate length %d = %v, want %v", i+1, got, w)
		}
	}
}

func TestFillRateEmpty(t *testing.T) {
	h := NewLocalHistory(4, 2)
	rates := h.FillRates()
	for _, r := range rates {
		if r.Rate() != 0 {
			t.Fatalf("empty profile rate = %v", r.Rate())
		}
	}
}

func TestProfileBundle(t *testing.T) {
	p := New(2, Options{})
	if p.Local.K != 9 || p.Global.K != 9 || p.Path.M != 3 {
		t.Fatalf("defaults wrong: %d %d %d", p.Local.K, p.Global.K, p.Path.M)
	}
	for i := 0; i < 100; i++ {
		p.RecordBranch(1, i%2 == 0)
	}
	if p.Counts.Total(1) != 100 {
		t.Fatal("counts not fed")
	}
	if p.Local.Recorded() == 0 || p.Global.Recorded() == 0 || p.Path.Recorded() == 0 {
		t.Fatal("history tables not fed")
	}
}

func TestOptionValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for k=0 local history")
		}
	}()
	NewLocalHistory(1, 0)
}

func TestSiteMissesMatchesMinority(t *testing.T) {
	h := NewGlobalHistory(1, 2)
	// Feed a fixed sequence; verify misses = sum of per-pattern minorities.
	seq := "110100111010011101"
	for _, ch := range seq {
		h.RecordBranch(0, ch == '1')
	}
	tab := h.Table(0)
	var want uint64
	for _, p := range tab {
		want += p.Misses()
	}
	got, _ := h.SiteMisses(0)
	if got != want {
		t.Fatalf("SiteMisses = %d, want %d", got, want)
	}
}

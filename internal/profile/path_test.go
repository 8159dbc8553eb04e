package profile

import (
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refPath is the reference path fold, a map per site as the definition
// reads: after the first m events of the run, each event counts under the
// path of the m events before it.
type refPath struct {
	m     int
	key   PathKey
	seen  int
	tabs  map[int32]map[PathKey]Pair
	total uint64
}

func (r *refPath) record(s int32, taken bool) {
	if r.seen < r.m {
		r.seen++
	} else {
		tab := r.tabs[s]
		if tab == nil {
			tab = map[PathKey]Pair{}
			r.tabs[s] = tab
		}
		p := tab[r.key.Suffix(r.m)]
		p.Add(taken)
		tab[r.key.Suffix(r.m)] = p
		r.total++
	}
	r.key = (r.key<<16 | PathKey(pathElem(s, taken))).Suffix(4)
}

// TestPathTableMatchesMapFold holds the flat path table to the map
// reference on random event streams, single events and runs mixed, at every
// path length: the same keys and counts per site (in ascending key order),
// the same recorded total and the same projections. Sites span the whole
// range a path element can hold; TestPathElemOverflowPanics covers the
// site past it.
func TestPathTableMatchesMapFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		m := 1 + trial%4
		// A few hot sites, so paths repeat, plus the range's ends.
		sites := []int32{0, MaxSites - 1}
		for i := 0; i < 1+rng.Intn(12); i++ {
			sites = append(sites, int32(rng.Intn(MaxSites)))
		}
		h := NewPathHistory(MaxSites, m)
		ref := &refPath{m: m, tabs: map[int32]map[PathKey]Pair{}}
		events := rng.Intn(3000)
		if trial < 4 {
			events = trial // runs shorter than the warm-up
		}
		for i := 0; i < events; i++ {
			s := sites[rng.Intn(len(sites))]
			taken := rng.Intn(3) != 0
			if rng.Intn(4) == 0 {
				n := uint64(rng.Intn(20))
				h.RecordRun(s, taken, n)
				for j := uint64(0); j < n; j++ {
					ref.record(s, taken)
				}
				continue
			}
			h.RecordBranch(s, taken)
			ref.record(s, taken)
		}
		if h.Recorded() != ref.total {
			t.Fatalf("trial %d (M=%d): recorded %d, want %d", trial, m, h.Recorded(), ref.total)
		}
		for _, s := range sites {
			keys, pairs := h.Table(s)
			var want []PathKey
			for k := range ref.tabs[s] {
				want = append(want, k)
			}
			slices.Sort(want)
			if !slices.Equal(keys, want) {
				t.Fatalf("trial %d (M=%d): site %d keys %v, want %v", trial, m, s, keys, want)
			}
			for i, k := range keys {
				if pairs[i] != ref.tabs[s][k] {
					t.Fatalf("trial %d (M=%d): site %d path %v counts %v, want %v", trial, m, s, k, pairs[i], ref.tabs[s][k])
				}
			}
			for l := 1; l <= m; l++ {
				proj := map[PathKey]Pair{}
				for k, p := range ref.tabs[s] {
					q := proj[k.Suffix(l)]
					q.Merge(p)
					proj[k.Suffix(l)] = q
				}
				if got := h.ProjectPaths(s, l); !maps.Equal(got, proj) {
					t.Fatalf("trial %d (M=%d): site %d projection to %d: %v, want %v", trial, m, s, l, got, proj)
				}
			}
		}
	}
}

// TestPathTableViewFollowsRecording reads the sorted view, records more,
// and reads it again: the second read must see the new events.
func TestPathTableViewFollowsRecording(t *testing.T) {
	h := NewPathHistory(2, 1)
	for i := 0; i < 10; i++ {
		h.RecordBranch(int32(i%2), true)
	}
	_, before := h.Table(1)
	h.RecordBranch(0, false)
	h.RecordBranch(1, false)
	_, after := h.Table(1)
	if tableTotal(after) != tableTotal(before)+1 {
		t.Fatalf("view after more events holds %d, want %d", tableTotal(after), tableTotal(before)+1)
	}
}

func tableTotal(pairs []Pair) uint64 {
	var n uint64
	for _, p := range pairs {
		n += p.Total()
	}
	return n
}

// TestPathTableConcurrent reads a shared path table's view from several
// goroutines at once, as the runner and the service store share
// profiles: every caller must see the one view.
func TestPathTableConcurrent(t *testing.T) {
	h := NewPathHistory(3, 2)
	for i := 0; i < 300; i++ {
		h.RecordBranch(int32(i%3), i%7 < 3)
	}
	got := make([][]PathKey, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], _ = h.Table(1)
		}()
	}
	wg.Wait()
	for _, keys := range got {
		if len(keys) == 0 || &keys[0] != &got[0][0] {
			t.Fatal("Table built the view more than once")
		}
	}
}

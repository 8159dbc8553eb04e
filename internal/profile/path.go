package profile

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/trace"
)

// PathKey encodes the last ≤4 (site, direction) pairs on the dynamic path
// to a branch: 16 bits per element, most recent in the low bits. The
// element encoding is (site+1)<<1 | dir, so 0 means "empty slot".
type PathKey uint64

// MaxSites is the most branch sites a path table can tell apart: a path
// element holds site+1 in 15 bits, so site IDs run 0..MaxSites-1.
const MaxSites = 1<<15 - 1

// pathElem encodes one executed branch.
func pathElem(site int32, taken bool) uint64 {
	return uint64(uint32(site+1))<<1 | uint64(b2u(taken))
}

// Suffix truncates the key to its most recent n elements.
func (k PathKey) Suffix(n int) PathKey {
	if n >= 4 {
		return k
	}
	return k & (PathKey(1)<<(16*uint(n)) - 1)
}

// Len is the number of non-empty elements in the key.
func (k PathKey) Len() int {
	n := 0
	for k != 0 {
		n++
		k >>= 16
	}
	return n
}

// Elem returns the i-th most recent element (0 = most recent) as
// (site, taken); ok is false for empty slots.
func (k PathKey) Elem(i int) (site int32, taken bool, ok bool) {
	e := uint64(k>>(16*uint(i))) & 0xffff
	if e == 0 {
		return 0, false, false
	}
	return int32(e>>1) - 1, e&1 == 1, true
}

func (k PathKey) String() string {
	s := "["
	for i := 0; i < 4; i++ {
		site, taken, ok := k.Elem(i)
		if !ok {
			break
		}
		if i > 0 {
			s += " "
		}
		d := "N"
		if taken {
			d = "T"
		}
		s += fmt.Sprintf("b%d:%s", site, d)
	}
	return s + "]"
}

// PathHistory builds, per branch site, outcome counts keyed by the path of
// the last M executed branches (any site). M is at most 4. The first M
// events of the run are warm-up. Site IDs must be below MaxSites.
//
// The counts live in one open-addressed table keyed by (site, path), with
// linear probing, grown by doubling at half load, so its size follows the
// distinct (site, path) pairs seen, at most one per recorded event. Readers
// see it through Table, a per-site view sorted by key.
type PathHistory struct {
	M      int
	key    PathKey
	seen   uint32
	nSites int
	total  uint64
	// slots has a power-of-two length; shift turns a 64-bit hash into a
	// slot index. A recorded path key is never 0 (its low element encodes
	// site+1 >= 1), so key 0 marks an empty slot.
	slots []pathSlot
	shift uint
	used  int
	// memoKey/memoSlot cache the last (path key, slot) resolved per site:
	// loop branches meet the same path over and over. A key of 0 never
	// matches, and growing the table clears the memo.
	memoKey  []PathKey
	memoSlot []int32

	viewMu sync.Mutex
	view   *pathView
}

// pathSlot is one (site, path) entry of the table.
type pathSlot struct {
	key  PathKey
	site int32
	pair Pair
}

// pathView is the table sorted by (site, key): site s's entries are
// keys[off[s]:off[s+1]] and pairs[off[s]:off[s+1]]. total is the number of
// recorded events the view was built over.
type pathView struct {
	total uint64
	off   []int32
	keys  []PathKey
	pairs []Pair
}

var _ trace.Collector = (*PathHistory)(nil)

// NewPathHistory creates path tables for nSites branches and paths of
// length M (1..4).
func NewPathHistory(nSites, m int) *PathHistory {
	if m < 1 || m > 4 {
		panic(fmt.Sprintf("profile: path length %d out of range [1,4]", m))
	}
	return &PathHistory{
		M:        m,
		nSites:   nSites,
		memoKey:  make([]PathKey, nSites),
		memoSlot: make([]int32, nSites),
	}
}

// RecordBranch implements trace.Collector.
func (h *PathHistory) RecordBranch(s int32, taken bool) {
	if s >= MaxSites {
		panic("profile: site id does not fit in a path element")
	}
	if h.seen >= uint32(h.M) {
		h.pairAt(s, h.key.Suffix(h.M)).Add(taken)
		h.total++
	} else {
		h.seen++
	}
	h.key = h.key<<16 | PathKey(pathElem(s, taken))
	h.key = h.key.Suffix(4)
}

// pathHash mixes a (site, path key) pair into 64 bits whose high bits
// index the table.
func pathHash(s int32, key PathKey) uint64 {
	return (uint64(key) + uint64(uint32(s))*0x9e3779b97f4a7c15) * 0xff51afd7ed558ccd
}

// pairAt returns the counts of (site, key), inserting a zero pair if the
// table has none. The pointer is valid until the next insertion.
func (h *PathHistory) pairAt(s int32, key PathKey) *Pair {
	if h.memoKey[s] == key {
		return &h.slots[h.memoSlot[s]].pair
	}
	return h.lookup(s, key)
}

// lookup is pairAt past the memo: a linear probe from the pair's hash.
func (h *PathHistory) lookup(s int32, key PathKey) *Pair {
	if 2*(h.used+1) > len(h.slots) {
		h.grow()
	}
	mask := uint64(len(h.slots) - 1)
	for i := pathHash(s, key) >> h.shift; ; i = (i + 1) & mask {
		sl := &h.slots[i]
		if sl.key == 0 {
			sl.key, sl.site = key, s
			h.used++
		} else if sl.key != key || sl.site != s {
			continue
		}
		h.memoKey[s], h.memoSlot[s] = key, int32(i)
		return &sl.pair
	}
}

// grow doubles the table (to 64 slots from empty) and rehashes it.
func (h *PathHistory) grow() {
	old := h.slots
	n := max(64, 2*len(old))
	h.slots = make([]pathSlot, n)
	h.shift = uint(64 - bits.Len(uint(n-1)))
	mask := uint64(n - 1)
	for _, sl := range old {
		if sl.key == 0 {
			continue
		}
		i := pathHash(sl.site, sl.key) >> h.shift
		for h.slots[i].key != 0 {
			i = (i + 1) & mask
		}
		h.slots[i] = sl
	}
	clear(h.memoKey)
}

// Recorded is the number of events recorded after warm-up.
func (h *PathHistory) Recorded() uint64 { return h.total }

// NumSites is the number of branch sites the tables were sized for.
func (h *PathHistory) NumSites() int { return h.nSites }

// Table returns site s's path table: its path keys in ascending order and
// the outcome counts under each (both empty if never filled). The sorted
// view of every site is built by the first read after recording and
// shared by later ones; the slices must not be modified. Safe for
// concurrent use once recording is over.
func (h *PathHistory) Table(s int32) ([]PathKey, []Pair) {
	v := h.sorted()
	lo, hi := v.off[s], v.off[s+1]
	return v.keys[lo:hi:hi], v.pairs[lo:hi:hi]
}

// sorted returns the table's view sorted by (site, key), rebuilding it if
// events were recorded since it was built.
func (h *PathHistory) sorted() *pathView {
	h.viewMu.Lock()
	defer h.viewMu.Unlock()
	if h.view != nil && h.view.total == h.total {
		return h.view
	}
	entries := make([]pathSlot, 0, h.used)
	for _, sl := range h.slots {
		if sl.key != 0 {
			entries = append(entries, sl)
		}
	}
	slices.SortFunc(entries, func(a, b pathSlot) int {
		if a.site != b.site {
			return cmp.Compare(a.site, b.site)
		}
		return cmp.Compare(a.key, b.key)
	})
	v := &pathView{total: h.total, off: make([]int32, h.nSites+1), keys: make([]PathKey, len(entries)), pairs: make([]Pair, len(entries))}
	for i, e := range entries {
		v.off[e.site+1]++
		v.keys[i], v.pairs[i] = e.key, e.pair
	}
	for s := 0; s < h.nSites; s++ {
		v.off[s+1] += v.off[s]
	}
	h.view = v
	return v
}

// ProjectPaths aggregates site s's M-length path counts down to suffixes of
// the given length.
func (h *PathHistory) ProjectPaths(s int32, length int) map[PathKey]Pair {
	if length < 1 || length > h.M {
		panic(fmt.Sprintf("profile: path projection length %d out of range [1,%d]", length, h.M))
	}
	out := make(map[PathKey]Pair)
	keys, pairs := h.Table(s)
	for i, k := range keys {
		sk := k.Suffix(length)
		q := out[sk]
		q.Merge(pairs[i])
		out[sk] = q
	}
	return out
}

// SiteMisses is the full-path-table misprediction count for site s.
func (h *PathHistory) SiteMisses(s int32) (misses, total uint64) {
	_, pairs := h.Table(s)
	return tableMisses(pairs)
}

// Package profile implements the paper's profiling data model (section 3):
// per-branch pattern tables keyed by local history ("loop branches"), by a
// global history register ("correlated branches"), and by the path of
// preceding branches (used by the correlated-branch state machines). It also
// computes the pattern-table fill rates of Table 2 and the weighted-count
// algebra the state-machine search of section 4 is built on.
package profile

import (
	"fmt"

	"repro/internal/trace"
)

// Pair is a (taken, not-taken) count pair.
type Pair struct {
	Taken    uint64
	NotTaken uint64
}

// Add records one outcome.
func (p *Pair) Add(taken bool) {
	if taken {
		p.Taken++
	} else {
		p.NotTaken++
	}
}

// Merge accumulates another pair.
func (p *Pair) Merge(q Pair) {
	p.Taken += q.Taken
	p.NotTaken += q.NotTaken
}

// Total is the number of recorded outcomes.
func (p Pair) Total() uint64 { return p.Taken + p.NotTaken }

// MajorityTaken reports the more frequent direction; ties predict
// not-taken (the fall-through), a fixed convention used everywhere so
// results are deterministic.
func (p Pair) MajorityTaken() bool { return p.Taken > p.NotTaken }

// Hits is the count correctly predicted by the majority direction.
func (p Pair) Hits() uint64 {
	if p.Taken > p.NotTaken {
		return p.Taken
	}
	return p.NotTaken
}

// Misses is the count mispredicted by the majority direction.
func (p Pair) Misses() uint64 {
	if p.Taken > p.NotTaken {
		return p.NotTaken
	}
	return p.Taken
}

func (p Pair) String() string { return fmt.Sprintf("%d/%d", p.Taken, p.NotTaken) }

// LocalHistory builds, per branch site, a pattern table keyed by the last K
// outcomes of that same branch (the "loop branch" strategy). Bit 0 of a
// pattern is the most recent outcome; 1 = taken. The first K outcomes of a
// site are warm-up and are not recorded.
type LocalHistory struct {
	K     int
	hist  []uint32
	seen  []uint32
	tabs  [][]Pair // lazily allocated, 1<<K entries
	mask  uint32
	total uint64
}

var _ trace.Collector = (*LocalHistory)(nil)

// NewLocalHistory creates tables for nSites branches with K-bit histories.
// K must be between 1 and 16.
func NewLocalHistory(nSites, k int) *LocalHistory {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("profile: local history length %d out of range [1,16]", k))
	}
	return &LocalHistory{
		K:    k,
		hist: make([]uint32, nSites),
		seen: make([]uint32, nSites),
		tabs: make([][]Pair, nSites),
		mask: (1 << uint(k)) - 1,
	}
}

// RecordBranch implements trace.Collector.
func (h *LocalHistory) RecordBranch(s int32, taken bool) {
	if h.seen[s] >= uint32(h.K) {
		tab := h.tabs[s]
		if tab == nil {
			tab = make([]Pair, 1<<uint(h.K))
			h.tabs[s] = tab
		}
		tab[h.hist[s]].Add(taken)
		h.total++
	} else {
		h.seen[s]++
	}
	h.hist[s] = (h.hist[s]<<1 | b2u(taken)) & h.mask
}

// Recorded is the number of events recorded after warm-up.
func (h *LocalHistory) Recorded() uint64 { return h.total }

// NumSites is the number of branch sites the tables were sized for.
func (h *LocalHistory) NumSites() int { return len(h.tabs) }

// Table returns site s's K-bit pattern table (nil if never filled).
func (h *LocalHistory) Table(s int32) []Pair { return h.tabs[s] }

// Project sums site s's table down to length-bit patterns (length <= K):
// entry i of the result aggregates every K-bit pattern whose low bits are i.
func (h *LocalHistory) Project(s int32, length int) []Pair {
	return projectTable(h.tabs[s], h.K, length)
}

// SiteMisses returns the mispredictions for site s when each K-bit pattern
// predicts its majority direction (the full-table semi-static strategy).
func (h *LocalHistory) SiteMisses(s int32) (misses, total uint64) {
	return tableMisses(h.tabs[s])
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func projectTable(tab []Pair, k, length int) []Pair {
	if length < 1 || length > k {
		panic(fmt.Sprintf("profile: projection length %d out of range [1,%d]", length, k))
	}
	out := make([]Pair, 1<<uint(length))
	if tab == nil {
		return out
	}
	mask := uint32(1<<uint(length)) - 1
	for pat, p := range tab {
		if p.Taken|p.NotTaken != 0 {
			out[uint32(pat)&mask].Merge(p)
		}
	}
	return out
}

func tableMisses(tab []Pair) (misses, total uint64) {
	for _, p := range tab {
		misses += p.Misses()
		total += p.Total()
	}
	return misses, total
}

// GlobalHistory builds, per branch site, a pattern table keyed by the last K
// outcomes of *any* branch (one shared global history register), the
// "correlated branch" strategy. The first K events of the whole run are
// warm-up.
type GlobalHistory struct {
	K     int
	ghr   uint32
	seen  uint32
	tabs  [][]Pair
	mask  uint32
	total uint64
}

var _ trace.Collector = (*GlobalHistory)(nil)

// NewGlobalHistory creates tables for nSites branches with a K-bit global
// history register.
func NewGlobalHistory(nSites, k int) *GlobalHistory {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("profile: global history length %d out of range [1,16]", k))
	}
	return &GlobalHistory{
		K:    k,
		tabs: make([][]Pair, nSites),
		mask: (1 << uint(k)) - 1,
	}
}

// RecordBranch implements trace.Collector.
func (h *GlobalHistory) RecordBranch(s int32, taken bool) {
	if h.seen >= uint32(h.K) {
		tab := h.tabs[s]
		if tab == nil {
			tab = make([]Pair, 1<<uint(h.K))
			h.tabs[s] = tab
		}
		tab[h.ghr].Add(taken)
		h.total++
	} else {
		h.seen++
	}
	h.ghr = (h.ghr<<1 | b2u(taken)) & h.mask
}

// Recorded is the number of events recorded after warm-up.
func (h *GlobalHistory) Recorded() uint64 { return h.total }

// NumSites is the number of branch sites the tables were sized for.
func (h *GlobalHistory) NumSites() int { return len(h.tabs) }

// Table returns site s's K-bit global-history table (nil if never filled).
func (h *GlobalHistory) Table(s int32) []Pair { return h.tabs[s] }

// Project aggregates to length-bit global patterns.
func (h *GlobalHistory) Project(s int32, length int) []Pair {
	return projectTable(h.tabs[s], h.K, length)
}

// SiteMisses is the full-table misprediction count for site s.
func (h *GlobalHistory) SiteMisses(s int32) (misses, total uint64) {
	return tableMisses(h.tabs[s])
}

// PathKey encodes the last ≤4 (site, direction) pairs on the dynamic path
// to a branch: 16 bits per element, most recent in the low bits. The
// element encoding is (site+1)<<1 | dir, so 0 means "empty slot".
type PathKey uint64

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
// events of the run are warm-up. Site IDs must fit in 15 bits.
type PathHistory struct {
	M     int
	key   PathKey
	seen  uint32
	tabs  []map[PathKey]*Pair
	total uint64
	// memoKey/memoP cache the last (path key, Pair) resolved per site;
	// see pairAt in run.go.
	memoKey []PathKey
	memoP   []*Pair
}

var _ trace.Collector = (*PathHistory)(nil)

// NewPathHistory creates path tables for nSites branches and paths of
// length M (1..4).
func NewPathHistory(nSites, m int) *PathHistory {
	if m < 1 || m > 4 {
		panic(fmt.Sprintf("profile: path length %d out of range [1,4]", m))
	}
	return &PathHistory{
		M:       m,
		tabs:    make([]map[PathKey]*Pair, nSites),
		memoKey: make([]PathKey, nSites),
		memoP:   make([]*Pair, nSites),
	}
}

// RecordBranch implements trace.Collector.
func (h *PathHistory) RecordBranch(s int32, taken bool) {
	if s >= 1<<15 {
		panic("profile: site id does not fit in a path element")
	}
	if h.seen >= uint32(h.M) {
		tab := h.tabs[s]
		if tab == nil {
			tab = make(map[PathKey]*Pair)
			h.tabs[s] = tab
		}
		h.pairAt(s, tab, h.key.Suffix(h.M)).Add(taken)
		h.total++
	} else {
		h.seen++
	}
	h.key = h.key<<16 | PathKey(pathElem(s, taken))
	h.key = h.key.Suffix(4)
}

// Recorded is the number of events recorded after warm-up.
func (h *PathHistory) Recorded() uint64 { return h.total }

// NumSites is the number of branch sites the tables were sized for.
func (h *PathHistory) NumSites() int { return len(h.tabs) }

// Table returns site s's path table (nil if never filled).
func (h *PathHistory) Table(s int32) map[PathKey]*Pair { return h.tabs[s] }

// ProjectPaths aggregates site s's M-length path counts down to suffixes of
// the given length.
func (h *PathHistory) ProjectPaths(s int32, length int) map[PathKey]Pair {
	if length < 1 || length > h.M {
		panic(fmt.Sprintf("profile: path projection length %d out of range [1,%d]", length, h.M))
	}
	out := make(map[PathKey]Pair)
	for k, p := range h.tabs[s] {
		sk := k.Suffix(length)
		q := out[sk]
		q.Merge(*p)
		out[sk] = q
	}
	return out
}

// SiteMisses is the full-path-table misprediction count for site s.
func (h *PathHistory) SiteMisses(s int32) (misses, total uint64) {
	for _, p := range h.tabs[s] {
		misses += p.Misses()
		total += p.Total()
	}
	return misses, total
}

// FillRate is one row slice of the paper's Table 2: for a given history
// length, the fraction of pattern-table entries actually used, averaged
// over the branches that have a table.
type FillRate struct {
	Length int
	// Used and Capacity are summed over branches with at least one entry.
	Used, Capacity uint64
}

// Rate is Used/Capacity in percent.
func (f FillRate) Rate() float64 {
	if f.Capacity == 0 {
		return 0
	}
	return 100 * float64(f.Used) / float64(f.Capacity)
}

// LocalFillRates computes Table 2 for local-history tables: for each
// history length 1..K, the percentage of the 2^length pattern slots used,
// over executed branches.
func (h *LocalHistory) FillRates() []FillRate {
	out := make([]FillRate, h.K)
	for j := 1; j <= h.K; j++ {
		fr := FillRate{Length: j}
		for s := range h.tabs {
			if h.tabs[s] == nil {
				continue
			}
			proj := h.Project(int32(s), j)
			used := uint64(0)
			for _, p := range proj {
				if p.Total() > 0 {
					used++
				}
			}
			if used > 0 {
				fr.Used += used
				fr.Capacity += 1 << uint(j)
			}
		}
		out[j-1] = fr
	}
	return out
}

// FillRates computes the same statistic for global-history tables.
func (h *GlobalHistory) FillRates() []FillRate {
	out := make([]FillRate, h.K)
	for j := 1; j <= h.K; j++ {
		fr := FillRate{Length: j}
		for s := range h.tabs {
			if h.tabs[s] == nil {
				continue
			}
			proj := h.Project(int32(s), j)
			used := uint64(0)
			for _, p := range proj {
				if p.Total() > 0 {
					used++
				}
			}
			if used > 0 {
				fr.Used += used
				fr.Capacity += 1 << uint(j)
			}
		}
		out[j-1] = fr
	}
	return out
}

// Profile bundles every table the downstream analyses need, collected in a
// single interpreter pass.
type Profile struct {
	NSites  int
	Counts  *trace.Counts
	Local   *LocalHistory
	Global  *GlobalHistory
	Path    *PathHistory
	Streams *Streams
	// Targets holds the per-site switch outcome histograms that guide the
	// indirect clustering family; conditional-branch sites keep nil rows.
	Targets *trace.TargetCounts
}

var (
	_ trace.Collector       = (*Profile)(nil)
	_ trace.SwitchCollector = (*Profile)(nil)
)

// Options configures profile collection.
type Options struct {
	// LocalK is the local history length (default 9, the paper's choice).
	LocalK int
	// GlobalK is the global history length (default 9).
	GlobalK int
	// PathM is the maximum correlated path length (default 3).
	PathM int
}

func (o *Options) setDefaults() {
	if o.LocalK == 0 {
		o.LocalK = 9
	}
	if o.GlobalK == 0 {
		o.GlobalK = 9
	}
	if o.PathM == 0 {
		o.PathM = 3
	}
}

// New creates an empty profile for nSites branch sites.
func New(nSites int, opts Options) *Profile {
	opts.setDefaults()
	return &Profile{
		NSites:  nSites,
		Counts:  trace.NewCounts(nSites),
		Local:   NewLocalHistory(nSites, opts.LocalK),
		Global:  NewGlobalHistory(nSites, opts.GlobalK),
		Path:    NewPathHistory(nSites, opts.PathM),
		Streams: NewStreams(nSites),
		Targets: trace.NewTargetCounts(nSites),
	}
}

// RecordSwitch implements trace.SwitchCollector.
func (p *Profile) RecordSwitch(site, outcome int32) {
	p.Targets.RecordSwitch(site, outcome)
}

// RecordSwitchRun implements trace.SwitchCollector.
func (p *Profile) RecordSwitchRun(site, outcome int32, n uint64) {
	p.Targets.RecordSwitchRun(site, outcome, n)
}

// RecordBranch implements trace.Collector, feeding all tables.
func (p *Profile) RecordBranch(site int32, taken bool) {
	p.Counts.RecordBranch(site, taken)
	p.Local.RecordBranch(site, taken)
	p.Global.RecordBranch(site, taken)
	p.Path.RecordBranch(site, taken)
	p.Streams.RecordBranch(site, taken)
}

// Package profile implements the paper's profiling data model (section 3):
// per-branch pattern tables keyed by local history ("loop branches",
// derived from each site's outcome stream), by a global history register
// ("correlated branches"), and by the path of preceding branches (used by
// the correlated-branch state machines). It also computes the
// pattern-table fill rates of Table 2 and the weighted-count algebra the
// state-machine search of section 4 is built on.
//
// A Profile folds only the tables its Options ask for. Machine selection
// reads the counts, the path table, the outcome streams (and the local
// tables derived from them) and the switch targets; the global table feeds
// only the bench's Table 1 correlation rows and Table 2 fill rates, so it
// is built only when Options.GlobalK is set. The path table is one flat
// open-addressed table keyed by (site, path), read through a per-site
// view sorted by key.
package profile

import (
	"fmt"
	"sync"

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

// LocalHistory holds, per branch site, a pattern table keyed by the last K
// outcomes of that same branch (the "loop branch" strategy). Bit 0 of a
// pattern is the most recent outcome; 1 = taken. The first K outcomes of a
// site are warm-up and are not recorded. A site's table is a function of
// its outcome stream alone, so it is derived from Streams
// (LocalFromStreams) rather than folded per event.
type LocalHistory struct {
	K     int
	tabs  [][]Pair // nil for sites with at most K outcomes
	total uint64
}

// LocalFromStreams builds every site's K-bit local table in one sequential
// pass over its packed outcome words: the first K outcomes fill the
// history register, and each later outcome is counted under the K before
// it. K must be between 1 and 16.
func LocalFromStreams(st *Streams, k int) *LocalHistory {
	if k < 1 || k > 16 {
		panic(fmt.Sprintf("profile: local history length %d out of range [1,16]", k))
	}
	h := &LocalHistory{K: k, tabs: make([][]Pair, len(st.sites))}
	mask := uint(1)<<uint(k) - 1
	for s := range st.sites {
		str := &st.sites[s]
		if str.n <= k {
			continue
		}
		tab := make([]Pair, mask+1)
		var hist uint
		for i := 0; i < k; i++ {
			hist = hist<<1 | uint(str.words[i>>6]>>uint(i&63))&1
		}
		for i := k; i < str.n; i++ {
			b := uint(str.words[i>>6]>>uint(i&63)) & 1
			p := &tab[hist&mask]
			p.Taken += uint64(b)
			p.NotTaken += uint64(b ^ 1)
			hist = hist<<1 | b
		}
		h.tabs[s] = tab
		h.total += uint64(str.n - k)
	}
	return h
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

// FillRates computes Table 2 for local-history tables: for each
// history length 1..K, the percentage of the 2^length pattern slots used,
// over executed branches.
func (h *LocalHistory) FillRates() []FillRate { return fillRates(h.tabs, h.K) }

// FillRates computes the same statistic for global-history tables.
func (h *GlobalHistory) FillRates() []FillRate { return fillRates(h.tabs, h.K) }

func fillRates(tabs [][]Pair, k int) []FillRate {
	out := make([]FillRate, k)
	for j := 1; j <= k; j++ {
		fr := FillRate{Length: j}
		for _, tab := range tabs {
			if tab == nil {
				continue
			}
			used := uint64(0)
			for _, p := range projectTable(tab, k, j) {
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

// Profile bundles every table the downstream analyses need. One pass over
// a trace folds the counts, the tables keyed by the order of events
// across sites (path, and global when asked for), the switch targets, and
// each site's outcome stream; the local tables are derived from the
// streams on first use (Local). A profile is derived data: it is never
// persisted, only refolded from its trace.
type Profile struct {
	NSites int
	Counts *trace.Counts
	// Global is nil unless Options.GlobalK was set.
	Global  *GlobalHistory
	Path    *PathHistory
	Streams *Streams
	// Targets holds the per-site switch outcome histograms that guide the
	// indirect clustering family; conditional-branch sites keep nil rows.
	Targets *trace.TargetCounts

	localK    int
	localOnce sync.Once
	local     *LocalHistory
}

var (
	_ trace.Collector       = (*Profile)(nil)
	_ trace.SwitchCollector = (*Profile)(nil)
)

// Options configures profile collection.
type Options struct {
	// LocalK is the local history length (default 9, the paper's choice).
	LocalK int
	// GlobalK is the global history length; 0 (the default) builds no
	// global table and leaves Profile.Global nil. Only Table 1's
	// correlation rows and Table 2's fill rates read one; the paper's
	// length is 9.
	GlobalK int
	// PathM is the maximum correlated path length (default 3).
	PathM int
}

func (o *Options) setDefaults() {
	if o.LocalK == 0 {
		o.LocalK = 9
	}
	if o.PathM == 0 {
		o.PathM = 3
	}
}

// New creates an empty profile for nSites branch sites.
func New(nSites int, opts Options) *Profile {
	opts.setDefaults()
	if opts.LocalK < 1 || opts.LocalK > 16 {
		panic(fmt.Sprintf("profile: local history length %d out of range [1,16]", opts.LocalK))
	}
	p := &Profile{
		NSites:  nSites,
		Counts:  trace.NewCounts(nSites),
		localK:  opts.LocalK,
		Path:    NewPathHistory(nSites, opts.PathM),
		Streams: NewStreams(nSites),
		Targets: trace.NewTargetCounts(nSites),
	}
	if opts.GlobalK != 0 {
		p.Global = NewGlobalHistory(nSites, opts.GlobalK)
	}
	return p
}

// RecordSwitch implements trace.SwitchCollector.
func (p *Profile) RecordSwitch(site, outcome int32) {
	p.Targets.RecordSwitch(site, outcome)
}

// RecordSwitchRun implements trace.SwitchCollector.
func (p *Profile) RecordSwitchRun(site, outcome int32, n uint64) {
	p.Targets.RecordSwitchRun(site, outcome, n)
}

// Local returns every site's local-history table at Options.LocalK,
// derived from Streams on the first call and shared after it. Call it once
// recording is over: events recorded later do not reach the tables. Safe
// for concurrent use.
func (p *Profile) Local() *LocalHistory {
	p.localOnce.Do(func() { p.local = LocalFromStreams(p.Streams, p.localK) })
	return p.local
}

// RecordBranch implements trace.Collector, feeding all folded tables.
func (p *Profile) RecordBranch(site int32, taken bool) {
	p.Counts.RecordBranch(site, taken)
	if p.Global != nil {
		p.Global.RecordBranch(site, taken)
	}
	p.Path.RecordBranch(site, taken)
	p.Streams.RecordBranch(site, taken)
}

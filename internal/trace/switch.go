package trace

// SwitchCollector consumes N-way dispatch events: site is the switch's
// prediction site (dense with conditional-branch sites) and outcome the
// selected successor index — case index v for 0 <= v < len(Targets),
// len(Targets) for the default arm. RecordSwitchRun(s, o, n) must leave
// the collector in a state identical to n consecutive RecordSwitch(s, o)
// calls. A Collector that does not implement it simply never sees switch
// events.
type SwitchCollector interface {
	RecordSwitch(site, outcome int32)
	RecordSwitchRun(site, outcome int32, n uint64)
}

// TargetCounts accumulates per-site switch outcome histograms — the
// profiling requirement of the case-clustering transform, which needs the
// frequency ranking of each hot switch's targets. Binary branch events
// pass through it untouched.
type TargetCounts struct {
	// Sites[site][outcome] is the number of times the switch at site
	// selected outcome. Rows grow on demand, so a site that never ran, or
	// a conditional-branch site, has a nil row.
	Sites [][]uint64
}

var (
	_ Collector       = (*TargetCounts)(nil)
	_ SwitchCollector = (*TargetCounts)(nil)
)

// NewTargetCounts sizes the outer table for nSites prediction sites; rows
// still grow on demand, and sites beyond the hint grow the table.
func NewTargetCounts(nSites int) *TargetCounts {
	return &TargetCounts{Sites: make([][]uint64, nSites)}
}

// RecordBranch implements Collector as a no-op: only switch events matter
// here.
func (c *TargetCounts) RecordBranch(int32, bool) {}

// RecordRun implements Collector as a no-op.
func (c *TargetCounts) RecordRun(int32, bool, uint64) {}

// RecordSwitch implements SwitchCollector.
func (c *TargetCounts) RecordSwitch(site, outcome int32) {
	c.RecordSwitchRun(site, outcome, 1)
}

// RecordSwitchRun implements SwitchCollector.
func (c *TargetCounts) RecordSwitchRun(site, outcome int32, n uint64) {
	for int(site) >= len(c.Sites) {
		c.Sites = append(c.Sites, nil)
	}
	row := c.Sites[site]
	for int(outcome) >= len(row) {
		row = append(row, 0)
	}
	row[outcome] += n
	c.Sites[site] = row
}

// Total returns the number of switch events recorded for site.
func (c *TargetCounts) Total(site int32) uint64 {
	if int(site) >= len(c.Sites) {
		return 0
	}
	var n uint64
	for _, v := range c.Sites[site] {
		n += v
	}
	return n
}

// TotalAll sums switch events across all sites.
func (c *TargetCounts) TotalAll() uint64 {
	var n uint64
	for site := range c.Sites {
		n += c.Total(int32(site))
	}
	return n
}

// Rank returns site's outcomes ordered by descending frequency, ties
// broken by ascending outcome index so the ranking is deterministic.
// Outcomes never observed are omitted.
func (c *TargetCounts) Rank(site int32) []RankedOutcome {
	if int(site) >= len(c.Sites) {
		return nil
	}
	out := make([]RankedOutcome, 0, len(c.Sites[site]))
	for outcome, n := range c.Sites[site] {
		if n > 0 {
			out = append(out, RankedOutcome{Outcome: int32(outcome), Count: n})
		}
	}
	for i := 1; i < len(out); i++ { // insertion sort: rows are tiny
		for j := i; j > 0 && out[j].Count > out[j-1].Count; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// RankedOutcome is one entry of TargetCounts.Rank.
type RankedOutcome struct {
	Outcome int32
	Count   uint64
}

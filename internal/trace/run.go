package trace

// MaxSite scans a replay for the highest site ID plus one — the table
// size a trace of unknown provenance needs (predict.Scorer learns the
// bound while it scores, so kralld does without it).
type MaxSite struct {
	// N is max(site)+1 over the events seen, 0 before any event.
	N int
}

var (
	_ Collector       = (*MaxSite)(nil)
	_ SwitchCollector = (*MaxSite)(nil)
)

// RecordBranch implements Collector.
func (m *MaxSite) RecordBranch(site int32, taken bool) { m.RecordRun(site, taken, 1) }

// RecordRun implements Collector.
func (m *MaxSite) RecordRun(site int32, _ bool, _ uint64) {
	if int(site) >= m.N {
		m.N = int(site) + 1
	}
}

// RecordSwitch implements SwitchCollector: switch sites share the dense
// site space, so they raise the table size too.
func (m *MaxSite) RecordSwitch(site, _ int32) { m.RecordRun(site, false, 1) }

// RecordSwitchRun implements SwitchCollector.
func (m *MaxSite) RecordSwitchRun(site, _ int32, _ uint64) { m.RecordRun(site, false, 1) }

// ReplayInto decodes the slab once and fans every event out to all
// collectors, with AdoptStream's calls, since both drain the same
// batches: single events through RecordBranch, RLE runs through
// RecordRun, and switch events to the collectors that implement
// SwitchCollector. N collectors cost one pass.
func (s *Slab) ReplayInto(cs ...Collector) {
	s.mustSealed("ReplayInto")
	var c Collector
	switch len(cs) {
	case 0:
		return
	case 1:
		c = cs[0]
	default:
		c = fanout(cs)
	}
	r := s.Steps()
	r.drain(c)
}

// fanout is the collector behind a ReplayInto of several collectors:
// every call goes to each of them, switch calls to those that take them.
type fanout []Collector

func (f fanout) RecordBranch(site int32, taken bool) {
	for _, c := range f {
		c.RecordBranch(site, taken)
	}
}

func (f fanout) RecordRun(site int32, taken bool, n uint64) {
	for _, c := range f {
		c.RecordRun(site, taken, n)
	}
}

func (f fanout) RecordSwitch(site, outcome int32) {
	for _, c := range f {
		if sc, ok := c.(SwitchCollector); ok {
			sc.RecordSwitch(site, outcome)
		}
	}
}

func (f fanout) RecordSwitchRun(site, outcome int32, n uint64) {
	for _, c := range f {
		if sc, ok := c.(SwitchCollector); ok {
			sc.RecordSwitchRun(site, outcome, n)
		}
	}
}

// runFunc adapts ReplayRuns' callback to a branch-only Collector.
type runFunc func(site int32, taken bool, n uint64)

func (f runFunc) RecordBranch(site int32, taken bool)        { f(site, taken, 1) }
func (f runFunc) RecordRun(site int32, taken bool, n uint64) { f(site, taken, n) }

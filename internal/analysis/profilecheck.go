package analysis

import (
	"repro/internal/profile"
)

// ProfileConsistency cross-checks the collectors inside one Profile, which
// all observed the same branch event stream: per-site taken/not-taken counts
// must equal the recorded outcome streams, and every history table must have
// recorded exactly the events left after its documented warm-up (K events
// per site for the local tables derived from the streams, K events per run
// for the global table when the profile has one, M per run for paths). A
// violation means a collector dropped or double-counted events and every
// machine built from the profile is suspect.
type ProfileConsistency struct{}

// Name implements Pass.
func (ProfileConsistency) Name() string { return "profile" }

// Run implements Pass. It needs Context.Prof; without it it reports nothing.
func (ProfileConsistency) Run(c *Context) {
	p := c.Prof
	if p == nil {
		return
	}
	local := p.Local()
	var localWant uint64
	for s := int32(0); int(s) < p.NSites; s++ {
		total := p.Counts.Total(s)
		stream := p.Streams.Site(s)
		if uint64(stream.Len()) != total {
			c.Errorf(Pos{}, "site %d: stream recorded %d events, counts recorded %d", s, stream.Len(), total)
			continue
		}
		var taken uint64
		for i := 0; i < stream.Len(); i++ {
			if stream.Get(i) {
				taken++
			}
		}
		if taken != p.Counts.Taken[s] {
			c.Errorf(Pos{}, "site %d: stream has %d taken outcomes, counts have %d", s, taken, p.Counts.Taken[s])
		}
		if total > uint64(local.K) {
			localWant += total - uint64(local.K)
		}
		if got := tableTotal(local.Table(s)); got != maxSub(total, uint64(local.K)) {
			c.Errorf(Pos{}, "site %d: local history table holds %d events, want %d (%d events minus %d warm-up)",
				s, got, maxSub(total, uint64(local.K)), total, local.K)
		}
	}
	if got := local.Recorded(); got != localWant {
		c.Errorf(Pos{}, "local history recorded %d events, per-site warm-up accounting expects %d", got, localWant)
	}
	totalAll := p.Counts.TotalAll()
	if p.Global != nil {
		if got := p.Global.Recorded(); got != maxSub(totalAll, uint64(p.Global.K)) {
			c.Errorf(Pos{}, "global history recorded %d events, want %d (%d events minus %d warm-up)",
				got, maxSub(totalAll, uint64(p.Global.K)), totalAll, p.Global.K)
		}
	}
	if got := p.Path.Recorded(); got != maxSub(totalAll, uint64(p.Path.M)) {
		c.Errorf(Pos{}, "path history recorded %d events, want %d (%d events minus %d warm-up)",
			got, maxSub(totalAll, uint64(p.Path.M)), totalAll, p.Path.M)
	}
}

func tableTotal(tab []profile.Pair) uint64 {
	var n uint64
	for _, p := range tab {
		n += p.Total()
	}
	return n
}

func maxSub(a, b uint64) uint64 {
	if a <= b {
		return 0
	}
	return a - b
}

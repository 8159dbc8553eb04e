package predict

// Run-aware evaluation: dynamic predictors whose state saturates under a
// run of identical outcomes implement RunUpdater, and Eval uses it to
// score a whole RLE run in O(1) (plus a bounded transient). The exactness
// argument per predictor family is DESIGN.md §7; bit-identical final
// state and miss counts are pinned by FuzzRunCollectorEquivalence.

// RunUpdater is implemented by predictors that can apply a run of n
// identical outcomes at one site directly, returning the exact number of
// mispredictions the run incurs. The contract is strict: state after
// UpdateRun(s, t, n) must equal state after n Predict+Update rounds.
type RunUpdater interface {
	UpdateRun(site int32, taken bool, n uint64) (misses uint64)
}

// RecordRun implements trace.Collector, taking the predictor's
// closed-form path when it has one and replaying the run event-at-a-time
// otherwise (e.g. the Combining meta-predictor, whose selector state
// depends on each step).
func (e *Eval) RecordRun(site int32, taken bool, n uint64) {
	if r, ok := e.P.(RunUpdater); ok {
		e.Misses += r.UpdateRun(site, taken, n)
		e.Total += n
		return
	}
	for ; n > 0; n-- {
		e.RecordBranch(site, taken)
	}
}

// UpdateRun implements RunUpdater: only the first event of a run can
// miss, after which last[site] equals the run direction.
func (p *LastDirection) UpdateRun(site int32, taken bool, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	var m uint64
	if p.last[site] != taken {
		m = 1
	}
	p.last[site] = taken
	p.seen[site] = true
	return m
}

// UpdateRun implements RunUpdater: a saturating two-bit counter at c
// climbing under taken outcomes mispredicts while it is still below 2 —
// max(0, 2-c) times — and falling under not-taken outcomes mispredicts
// while it is at 2 or above — max(0, c-1) times — both capped at n; the
// final counter is the start moved n steps and clamped to [0, 3].
func (p *TwoBit) UpdateRun(site int32, taken bool, n uint64) uint64 {
	if n == 0 {
		return 0
	}
	c := uint64(p.ctr[site])
	var m uint64
	if taken {
		if c < 2 {
			m = 2 - c
		}
		c += n
		if c > 3 {
			c = 3
		}
	} else {
		if c >= 2 {
			m = c - 1
		}
		if c > n {
			c -= n
		} else {
			c = 0
		}
	}
	if m > n {
		m = n
	}
	p.ctr[site] = uint8(c)
	return m
}

// UpdateRun implements RunUpdater: after at most HistBits steps of the
// same outcome the history register holds the all-ones (or all-zeros)
// pattern, and after at most 3 more the counter it indexes saturates.
// That state is absorbing — it predicts the run direction and every
// update maps it to itself — so the remainder of the run contributes no
// misses and no state change.
func (p *TwoLevel) UpdateRun(site int32, taken bool, n uint64) uint64 {
	hi := p.histIdx(site)
	tab := p.pats[p.patIdx(site)]
	var steady uint32
	var sat uint8
	if taken {
		steady = p.mask
		sat = 3
	}
	var m uint64
	for ; n > 0; n-- {
		if p.hist[hi] == steady && tab[steady] == sat {
			break
		}
		if p.Predict(site) != taken {
			m++
		}
		p.Update(site, taken)
	}
	return m
}

// UpdateRun implements RunUpdater: once the index-forming low bits of the
// global history register are all-ones (or all-zeros) the run indexes one
// fixed counter, and once that counter saturates the predictions all hit
// and the counter no longer moves. Only the register keeps shifting, and
// its final value has a closed form: n more identical bits shifted in.
func (p *GShare) UpdateRun(site int32, taken bool, n uint64) uint64 {
	idxMask := uint32(len(p.tab) - 1)
	var steadyLow uint32
	var sat uint8
	if taken {
		steadyLow = idxMask
		sat = 3
	}
	var m uint64
	for ; n > 0; n-- {
		if p.ghr&idxMask == steadyLow && p.tab[(p.ghr^uint32(site))&idxMask] == sat {
			break
		}
		if p.Predict(site) != taken {
			m++
		}
		p.Update(site, taken)
	}
	if n == 0 {
		return m
	}
	if n >= 32 {
		if taken {
			p.ghr = ^uint32(0)
		} else {
			p.ghr = 0
		}
	} else {
		p.ghr <<= uint(n)
		if taken {
			p.ghr |= 1<<uint(n) - 1
		}
	}
	return m
}

package profile

// Run-aware collection: every table implements trace.Collector with an
// exact shortcut for runs of identical outcomes. Each method splits a run
// into warm-up, a bounded transient replayed with the table's usual
// per-event update (inlined, with the site's register state hoisted into
// locals for the whole run), and a steady-state remainder folded in with
// O(1) arithmetic once the history register reaches its absorbing
// all-taken / all-not-taken pattern. The absorbing argument per table
// (and why the split is exact) is DESIGN.md §7; the bit-identical
// contract is pinned by FuzzRunCollectorEquivalence.

// RecordRun implements trace.Collector. Once site s has warmed up and
// its history register holds the all-taken (or all-not-taken) pattern, a
// further identical outcome records into the same table slot and leaves
// the register unchanged — so the remaining events collapse into one
// Pair update. The transient is at most K recording steps.
func (h *LocalHistory) RecordRun(s int32, taken bool, n uint64) {
	if n == 0 {
		return
	}
	hist := h.hist[s]
	seen := h.seen[s]
	var steady, bit uint32
	if taken {
		steady = h.mask
		bit = 1
	}
	for ; n > 0 && seen < uint32(h.K); n-- {
		seen++
		hist = (hist<<1 | bit) & h.mask
	}
	h.seen[s] = seen
	if n == 0 {
		h.hist[s] = hist
		return
	}
	tab := h.tabs[s]
	if tab == nil {
		tab = make([]Pair, 1<<uint(h.K))
		h.tabs[s] = tab
	}
	h.total += n
	for ; n > 0 && hist != steady; n-- {
		if taken {
			tab[hist].Taken++
		} else {
			tab[hist].NotTaken++
		}
		hist = (hist<<1 | bit) & h.mask
	}
	h.hist[s] = hist
	if n == 0 {
		return
	}
	if taken {
		tab[steady].Taken += n
	} else {
		tab[steady].NotTaken += n
	}
}

// RecordRun implements trace.Collector. Identical reasoning to
// LocalHistory, on the single shared history register: within a run every
// event comes from the same site, so once the register saturates the
// indexed slot is fixed too.
func (h *GlobalHistory) RecordRun(s int32, taken bool, n uint64) {
	if n == 0 {
		return
	}
	ghr := h.ghr
	var steady, bit uint32
	if taken {
		steady = h.mask
		bit = 1
	}
	for ; n > 0 && h.seen < uint32(h.K); n-- {
		h.seen++
		ghr = (ghr<<1 | bit) & h.mask
	}
	if n == 0 {
		h.ghr = ghr
		return
	}
	tab := h.tabs[s]
	if tab == nil {
		tab = make([]Pair, 1<<uint(h.K))
		h.tabs[s] = tab
	}
	h.total += n
	for ; n > 0 && ghr != steady; n-- {
		if taken {
			tab[ghr].Taken++
		} else {
			tab[ghr].NotTaken++
		}
		ghr = (ghr<<1 | bit) & h.mask
	}
	h.ghr = ghr
	if n == 0 {
		return
	}
	if taken {
		tab[steady].Taken += n
	} else {
		tab[steady].NotTaken += n
	}
}

// RecordRun implements trace.Collector. The path key's absorbing value
// under a run at site s is the element (s, dir) repeated in all four
// slots; from there each further event records into the same path slot
// and re-produces the same key. The transient is at most 4 recording
// steps.
func (h *PathHistory) RecordRun(s int32, taken bool, n uint64) {
	if n == 0 {
		return
	}
	if s >= 1<<15 {
		panic("profile: site id does not fit in a path element")
	}
	e := PathKey(pathElem(s, taken))
	steady := e | e<<16 | e<<32 | e<<48
	key := h.key
	for ; n > 0 && h.seen < uint32(h.M); n-- {
		h.seen++
		key = (key<<16 | e).Suffix(4)
	}
	if n == 0 {
		h.key = key
		return
	}
	tab := h.tabs[s]
	if tab == nil {
		tab = make(map[PathKey]*Pair)
		h.tabs[s] = tab
	}
	h.total += n
	for ; n > 0 && key != steady; n-- {
		h.pairAt(s, tab, key.Suffix(h.M)).Add(taken)
		key = (key<<16 | e).Suffix(4)
	}
	h.key = key
	if n == 0 {
		return
	}
	p := h.pairAt(s, tab, steady.Suffix(h.M))
	if taken {
		p.Taken += n
	} else {
		p.NotTaken += n
	}
}

// pairAt resolves the Pair for (site, path key) through the per-site memo
// — loop branches hit the same path context over and over, so most
// lookups skip the map entirely. The memo is a pure cache: Pair pointers
// are stable once inserted, and a post-warm-up key is never zero (its low
// element encodes site+1 >= 1), so the zero-valued memo entry cannot
// alias a real key while memoP is nil.
func (h *PathHistory) pairAt(s int32, tab map[PathKey]*Pair, key PathKey) *Pair {
	if h.memoKey[s] == key && h.memoP[s] != nil {
		return h.memoP[s]
	}
	p := tab[key]
	if p == nil {
		p = &Pair{}
		tab[key] = p
	}
	h.memoKey[s] = key
	h.memoP[s] = p
	return p
}

// AppendRun records n copies of the same outcome with word-at-a-time bit
// fills instead of n single-bit appends.
func (s *Stream) AppendRun(taken bool, n uint64) {
	if n == 0 {
		return
	}
	end := s.n + int(n)
	for need := (end + 63) >> 6; len(s.words) < need; {
		s.words = append(s.words, 0)
	}
	if taken {
		for i := s.n; i < end; {
			lo := uint(i & 63)
			cnt := 64 - lo
			if rem := uint(end - i); rem < cnt {
				cnt = rem
			}
			var m uint64
			if cnt == 64 {
				m = ^uint64(0)
			} else {
				m = (1<<cnt - 1) << lo
			}
			s.words[i>>6] |= m
			i += int(cnt)
		}
	}
	s.n = end
}

// RecordRun implements trace.Collector.
func (c *Streams) RecordRun(site int32, taken bool, n uint64) {
	c.sites[site].AppendRun(taken, n)
	c.total += n
}

// RecordRun implements trace.Collector, feeding all tables.
func (p *Profile) RecordRun(site int32, taken bool, n uint64) {
	p.Counts.RecordRun(site, taken, n)
	p.Local.RecordRun(site, taken, n)
	p.Global.RecordRun(site, taken, n)
	p.Path.RecordRun(site, taken, n)
	p.Streams.RecordRun(site, taken, n)
}

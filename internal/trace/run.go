package trace

// RecordRun implements Collector: a run is one addition.
func (c *Counts) RecordRun(site int32, taken bool, n uint64) {
	if taken {
		c.Taken[site] += n
	} else {
		c.NotTaken[site] += n
	}
}

// RecordRun implements Collector: Seen counts the whole run even when the
// cap truncates the stored events, matching n RecordBranch calls.
func (l *Log) RecordRun(site int32, taken bool, n uint64) {
	l.Seen += n
	for ; n > 0; n-- {
		if l.Max != 0 && len(l.Events) >= l.Max {
			return
		}
		l.Events = append(l.Events, Event{Site: site, Taken: taken})
	}
}

// MaxSite scans a replay for the highest site ID plus one — the table
// size a trace of unknown provenance needs. kralld no longer calls it: predict.Scorer learns the bound
// while it scores. Its remaining callers are the krallperf upload mirror
// (cmd/krallperf), the run-collector equivalence tests in internal/bench,
// and the service's reference path in FuzzScoreUpload.
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

// replayBytes is the decode loop behind every replay: one pass over a
// slab's event bytes, where plain single events go to ev — the collector's ordinary
// per-event entry point, so a trace with no exploitable runs replays at
// per-event cost — and only genuine RLE runs (the repeat count after the
// first event) go to run, where collectors take their O(1) shortcut.
// Switch events split the same way between sw and swRun. The 1- and 2-byte uvarint forms are decoded inline
// (site IDs are small, so nearly every code takes one or two bytes);
// longer forms and corruption fall through to decodeUvarint. Run markers
// repeat whichever event kind came last, so the loop tracks both the
// branch and the switch state plus which is current.
func replayBytes(buf []byte, ev func(site int32, taken bool), run func(site int32, taken bool, n uint64),
	sw func(site, outcome int32), swRun func(site, outcome int32, n uint64)) {
	var site int32
	var taken bool
	var swSite, swOutcome int32
	inSwitch := false
	for i := 0; i < len(buf); {
		var code uint64
		if b := buf[i]; b < 0x80 {
			code = uint64(b)
			i++
		} else if i+1 < len(buf) && buf[i+1] < 0x80 {
			code = uint64(b&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else {
			code, i = decodeUvarint(buf, i)
		}
		if code != 1 {
			site, taken = int32(code>>1)-1, code&1 == 1
			inSwitch = false
			ev(site, taken)
			continue
		}
		var n uint64
		if i < len(buf) && buf[i] < 0x80 {
			n = uint64(buf[i])
			i++
		} else if i+1 < len(buf) && buf[i] >= 0x80 && buf[i+1] < 0x80 {
			n = uint64(buf[i]&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else {
			n, i = decodeUvarint(buf, i)
		}
		if n == 0 { // switch escape
			var sc, oc uint64
			sc, i = decodeUvarint(buf, i)
			oc, i = decodeUvarint(buf, i)
			swSite, swOutcome = int32(sc-1), int32(oc)
			inSwitch = true
			sw(swSite, swOutcome)
			continue
		}
		if inSwitch {
			swRun(swSite, swOutcome, n)
		} else {
			run(site, taken, n)
		}
	}
}

// replayCountsBytes is replayBytes specialised for *Counts, the
// service's "profile" scoring strategy and the experiment engine's
// per-seed count pass: the run lands directly in the slice, with no
// indirect call per run.
func replayCountsBytes(buf []byte, c *Counts) {
	tk, nt := c.Taken, c.NotTaken
	var site int32
	var taken bool
	inSwitch := false
	for i := 0; i < len(buf); {
		var code uint64
		if b := buf[i]; b < 0x80 {
			code = uint64(b)
			i++
		} else if i+1 < len(buf) && buf[i+1] < 0x80 {
			code = uint64(b&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else {
			code, i = decodeUvarint(buf, i)
		}
		if code != 1 {
			site, taken = int32(code>>1)-1, code&1 == 1
			inSwitch = false
			if taken {
				tk[site]++
			} else {
				nt[site]++
			}
			continue
		}
		var n uint64
		if i < len(buf) && buf[i] < 0x80 {
			n = uint64(buf[i])
			i++
		} else if i+1 < len(buf) && buf[i] >= 0x80 && buf[i+1] < 0x80 {
			n = uint64(buf[i]&0x7f) | uint64(buf[i+1])<<7
			i += 2
		} else {
			n, i = decodeUvarint(buf, i)
		}
		if n == 0 { // switch escape: Counts ignores switch events entirely
			_, i = decodeUvarint(buf, i)
			_, i = decodeUvarint(buf, i)
			inSwitch = true
			continue
		}
		if inSwitch {
			continue
		}
		if taken {
			tk[site] += n
		} else {
			nt[site] += n
		}
	}
}

// ReplayInto decodes the slab once and fans every event out to all
// collectors: single events through RecordBranch, RLE runs through
// RecordRun, and switch events to the collectors that implement
// SwitchCollector. N collectors cost one pass. A lone collector is
// dispatched straight to its methods, and a lone *Counts takes the
// specialised loop, so pooled request paths keep to a couple of fixed
// allocations per replay.
func (s *Slab) ReplayInto(cs ...Collector) {
	s.mustSealed("ReplayInto")
	buf := s.buf
	switch len(cs) {
	case 0:
		return
	case 1:
		c := cs[0]
		if counts, ok := c.(*Counts); ok {
			replayCountsBytes(buf, counts)
			return
		}
		sw, swRun := dropSwitch, dropSwitchRun
		if sc, ok := c.(SwitchCollector); ok {
			sw, swRun = sc.RecordSwitch, sc.RecordSwitchRun
		}
		replayBytes(buf, c.RecordBranch, c.RecordRun, sw, swRun)
		return
	}
	var sws []SwitchCollector
	for _, c := range cs {
		if sc, ok := c.(SwitchCollector); ok {
			sws = append(sws, sc)
		}
	}
	replayBytes(buf, func(site int32, taken bool) {
		for _, c := range cs {
			c.RecordBranch(site, taken)
		}
	}, func(site int32, taken bool, n uint64) {
		for _, c := range cs {
			c.RecordRun(site, taken, n)
		}
	}, func(site, outcome int32) {
		for _, sc := range sws {
			sc.RecordSwitch(site, outcome)
		}
	}, func(site, outcome int32, n uint64) {
		for _, sc := range sws {
			sc.RecordSwitchRun(site, outcome, n)
		}
	})
}

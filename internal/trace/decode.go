package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// decoder reads a BLTRACE1 event stream (see magic) one step at a time,
// and next is the only reader of its grammar: the validating pass, every
// replay and the Cursor all step through it, so they accept, reject and
// deliver exactly the same forms. Malformed bytes come back as an error
// with the text AdoptStream reports; a trusted caller — a sealed slab's
// bytes were written by Record or validated on the way in — panics on one.
// The caller keeps the offset, so a hot loop holds it in a register.
type decoder struct {
	buf []byte
	// ev is the last event decoded, the one a run marker repeats, branch
	// or switch alike.
	ev Event
	// n is the length of the last run marker.
	n uint64
}

// step is what one call to next decoded.
type step uint8

const (
	stepEnd    step = iota // the end of buf
	stepFooter             // the footer code; the footer count follows it
	stepEvent              // a plain code or a switch escape: ev, once
	stepRun                // a run marker: ev, n more times
)

// next decodes the step at buf[i:], whatever its form, and returns the
// offset after it.
func (d *decoder) next(i int) (step, int, error) {
	if i == len(d.buf) {
		return stepEnd, i, nil
	}
	code, i, err := uvarintField(d.buf, i, "event code")
	switch {
	case err != nil:
		return stepEnd, i, err
	case code == 0:
		return stepFooter, i, nil
	case code > 1:
		site := code>>1 - 1
		if site > math.MaxInt32 {
			return stepEnd, i, fmt.Errorf("trace: site %d in code %d overflows int32", site, code)
		}
		d.ev = Event{Site: int32(site), Taken: code&1 == 1}
		return stepEvent, i, nil
	}
	if d.n, i, err = uvarintField(d.buf, i, "run"); err != nil || d.n > 0 {
		return stepRun, i, err
	}
	// A zero-length run is the switch escape: site+1, then the outcome.
	sc, i, err := uvarintField(d.buf, i, "switch site")
	if err != nil {
		return stepEnd, i, err
	}
	if sc == 0 || sc-1 > math.MaxInt32 {
		return stepEnd, i, fmt.Errorf("trace: switch site code %d out of range", sc)
	}
	oc, i, err := uvarintField(d.buf, i, "switch outcome")
	if err != nil {
		return stepEnd, i, err
	}
	if oc > math.MaxInt32 {
		return stepEnd, i, fmt.Errorf("trace: switch outcome %d overflows int32", oc)
	}
	d.ev = Event{Site: int32(sc - 1), Switch: true, Outcome: int32(oc)}
	return stepEvent, i, nil
}

// plain is next's inlinable fast path: a plain code of one or two bytes
// at buf[i:], nearly every code a trace holds, becomes ev, and plain
// returns the offset after it. At any other form, or at the stream's last
// byte, it returns i, and the step is next's. Hot loops try it first.
func (d *decoder) plain(i int) (Event, int) {
	if i+1 >= len(d.buf) {
		return Event{}, i
	}
	j, code := i+1, uint(d.buf[i])
	if code >= 0x80 {
		code = code&0x7f | uint(d.buf[j])<<7
		j++
	}
	// Below 2 is a footer or a run marker; from 1<<14 the second byte
	// continued, so the code is longer.
	if code-2 >= 1<<14-2 {
		return Event{}, i
	}
	ev := Event{Site: int32(code>>1) - 1, Taken: code&1 == 1}
	d.ev = ev
	return ev, j
}

// uvarintField decodes the uvarint at buf[i:], returning the offset after
// it. A value past 64 bits is corruption; one cut off by the end of buf is
// errShort (ten continuation bytes already overflow, whatever follows).
func uvarintField(buf []byte, i int, what string) (uint64, int, error) {
	v, k := binary.Uvarint(buf[i:])
	if k > 0 {
		return v, i + k, nil
	}
	err := errShort
	if k < 0 || len(buf)-i >= binary.MaxVarintLen64 {
		err = errors.New("uvarint overflows 64 bits")
	}
	return 0, i, fmt.Errorf("trace: %s at byte %d: %w", what, i, err)
}

// corrupt is what a trusted caller panics with when next refuses its
// bytes: a programming error, never input from outside.
func corrupt(err error) string { return "trace: corrupt slab: " + err.Error() }

// scanEvents steps through buf up to the footer code or its end, holds
// each step to lim, and feeds c; it returns the offset of the footer code
// and of the count after it (both len(buf) when buf holds no footer) and
// the number of events. It is AdoptStream's validating pass and, with no
// limits, the replay of a lone collector or a fan-out, so a collector
// riding an upload sees exactly the calls a later replay makes: a plain
// code or a switch escape is one RecordBranch or RecordSwitch, a run
// marker one RecordRun or RecordSwitchRun even when it repeats once,
// switch events go only to a SwitchCollector, and a nil c gets nothing.
//
// Beyond the grammar it checks that no run marker comes before the first
// event, no site reaches lim.MaxSites, and the event count stays within
// lim.MaxEvents. The count is checked at each run marker and once at the
// end, not per event: it only grows, so a count past the cap at the end —
// even one cut short by corruption — is exactly the stream an
// event-at-a-time decoder would have refused as too large first.
func scanEvents(buf []byte, lim Limits, c Collector) (end, count int, n uint64, err error) {
	maxEvents := lim.MaxEvents
	if maxEvents == 0 {
		maxEvents = math.MaxUint64
	}
	sw, _ := c.(SwitchCollector)
	d := decoder{buf: buf}
	end, count = len(buf), len(buf)
steps:
	for i := 0; ; {
		start, st := i, stepEvent
		var ev Event
		if ev, i = d.plain(start); i == start {
			if st, i, err = d.next(start); err != nil {
				break
			}
			ev = d.ev
		}
		switch st {
		case stepEnd:
			break steps
		case stepFooter:
			end, count = start, i
			break steps
		case stepRun:
			switch {
			case n == 0:
				err = errors.New("trace: run marker before any event")
				break steps
			case n > maxEvents || d.n > maxEvents-n:
				err = fmt.Errorf("trace: run of %d after %d events: %w", d.n, n, ErrTooLarge)
				break steps
			}
			n += d.n
		case stepEvent:
			if lim.MaxSites > 0 && ev.Site >= lim.MaxSites {
				err = fmt.Errorf("trace: site %d exceeds the %d-site cap: %w", ev.Site, lim.MaxSites, ErrTooLarge)
				break steps
			}
			n++
		}
		switch {
		case c == nil || ev.Switch && sw == nil:
		case ev.Switch && st == stepRun:
			sw.RecordSwitchRun(ev.Site, ev.Outcome, d.n)
		case ev.Switch:
			sw.RecordSwitch(ev.Site, ev.Outcome)
		case st == stepRun:
			c.RecordRun(ev.Site, ev.Taken, d.n)
		default:
			c.RecordBranch(ev.Site, ev.Taken)
		}
	}
	if n > maxEvents {
		return 0, 0, 0, fmt.Errorf("trace: %d events: %w", n, ErrTooLarge)
	}
	return end, count, n, err
}

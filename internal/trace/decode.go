package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// decoder reads a BLTRACE1 event stream (see magic) one step at a time,
// and next, with its fast path plain, is the only reader of its grammar:
// Steps — the validating pass and every replay — and the Cursor both step
// through it, so they accept, reject and deliver exactly the same forms. Malformed bytes come back as an error
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

// form is the kind of step one call to next decoded.
type form uint8

const (
	formEnd    form = iota // the end of buf
	formFooter             // the footer code; the footer count follows it
	formEvent              // a plain code or a switch escape: ev, once
	formRun                // a run marker: ev, n more times
)

// next decodes the step at buf[i:], whatever its form, and returns the
// offset after it.
func (d *decoder) next(i int) (form, int, error) {
	if i == len(d.buf) {
		return formEnd, i, nil
	}
	code, i, err := uvarintField(d.buf, i, "event code")
	switch {
	case err != nil:
		return formEnd, i, err
	case code == 0:
		return formFooter, i, nil
	case code > 1:
		site := code>>1 - 1
		if site > math.MaxInt32 {
			return formEnd, i, fmt.Errorf("trace: site %d in code %d overflows int32", site, code)
		}
		d.ev = Event{Site: int32(site), Taken: code&1 == 1}
		return formEvent, i, nil
	}
	if d.n, i, err = uvarintField(d.buf, i, "run"); err != nil || d.n > 0 {
		return formRun, i, err
	}
	// A zero-length run is the switch escape: site+1, then the outcome.
	sc, i, err := uvarintField(d.buf, i, "switch site")
	if err != nil {
		return formEnd, i, err
	}
	if sc == 0 || sc-1 > math.MaxInt32 {
		return formEnd, i, fmt.Errorf("trace: switch site code %d out of range", sc)
	}
	oc, i, err := uvarintField(d.buf, i, "switch outcome")
	if err != nil {
		return formEnd, i, err
	}
	if oc > math.MaxInt32 {
		return formEnd, i, fmt.Errorf("trace: switch outcome %d overflows int32", oc)
	}
	d.ev = Event{Site: int32(sc - 1), Switch: true, Outcome: int32(oc)}
	return formEvent, i, nil
}

// plain is next's inlinable fast path. It reads the code of one or two
// bytes at buf[i:], which must hold at least two, and returns it with the
// offset after it. The code is a plain event — nearly every code a trace
// holds — when code-2 < plainCodes, and codeEvent decodes it; any other
// form is next's. Hot loops try plain first, keeping the stream and the
// event in registers; before their next call to next they store the last
// event they took from it in the decoder's ev.
func plain(buf []byte, i int) (code uint, j int) {
	if code = uint(buf[i]); code < 0x80 {
		return code, i + 1
	}
	return code&0x7f | uint(buf[i+1])<<7, i + 2
}

// plainCodes bounds the plain codes, less 2: below 2 is a footer or a run
// marker, and from 1<<14 the second byte continued, so the code is longer.
const plainCodes = 1<<14 - 2

// codeEvent is the branch event of a plain code.
func codeEvent(code uint) Event { return Event{Site: int32(code>>1) - 1, Taken: code&1 == 1} }

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

// BatchSize is the batch length the drains decode into: a few kilobytes
// of steps, small enough to stay in cache while a consumer folds them.
const BatchSize = 256

// Step is one decoded step of a stream: its event once, for a plain code
// or a switch escape, or N times in a row, for a run marker.
type Step struct {
	// N is the number of events the step stands for, at least 1.
	N uint64
	Event
	// Run marks a step decoded from a run marker, even one of length 1: a
	// Collector receives it as one RecordRun or RecordSwitchRun.
	Run bool
}

// Steps is a decoding pass over an event stream that delivers its steps
// in batches: the validating pass of AdoptStream (see Adopt) and the
// replay of a sealed slab (Slab.Steps) alike. Next's loop decodes plain
// codes through plain and hands every other form to step, which
// is the one place that holds a stream to its Limits: no run marker before
// the first event, no site at or past MaxSites, and at most MaxEvents
// events. The event count is checked at each run marker and once at the
// end, not per event: it only grows, so a count past the cap at the end —
// even one cut short by corruption — is exactly the stream an
// event-at-a-time decoder would have refused as too large first.
type Steps struct {
	d decoder
	// i is the offset of the next step; it stays on the footer code once
	// the pass reaches it, so the footer count is never read as a code.
	i int
	// maxSites and maxEvents are the limits, the type's maximum for none.
	maxSites  uint32
	maxEvents uint64
	// n counts the events delivered so far.
	n uint64
	// end and count are the offsets of the footer code and of the count
	// after it, both len(buf) when the stream holds no footer.
	end, count int
	done       bool
	err        error
	// trusted passes panic where an untrusted one refuses the stream.
	trusted bool
}

// newSteps starts a pass over the event bytes buf under lim.
func newSteps(buf []byte, lim Limits) Steps {
	r := Steps{d: decoder{buf: buf}, maxSites: math.MaxUint32, maxEvents: lim.MaxEvents,
		end: len(buf), count: len(buf)}
	if lim.MaxSites > 0 {
		r.maxSites = uint32(lim.MaxSites)
	}
	if r.maxEvents == 0 {
		r.maxEvents = math.MaxUint64
	}
	return r
}

// Steps returns a pass over the slab's steps, in recorded order. A sealed
// slab's bytes are trusted, so Next panics where an upload would be
// refused.
func (s *Slab) Steps() Steps {
	s.mustSealed("Steps")
	r := newSteps(s.buf, Limits{})
	r.trusted = true
	return r
}

// Next decodes up to len(buf) steps into buf and returns them. It returns
// an empty batch once the stream ends — at its footer code, its last byte,
// or the first step the pass refuses — and on every call after.
func (r *Steps) Next(buf []Step) []Step {
	k := 0
	for !r.done && k < len(buf) {
		if k = r.takePlain(buf, k); k < len(buf) && r.step(&buf[k]) {
			k++
		}
	}
	return buf[:k]
}

// takePlain decodes plain codes into buf from buf[k] on, until buf is full or
// the next code is not a plain one under the site cap, and returns the
// index after the last step it wrote. The loop calls nothing, so the
// stream, the offset and the count stay in registers; it stores them in
// r, with the last event it decoded, when it stops.
func (r *Steps) takePlain(buf []Step, k int) int {
	// A plain code below codes names a site under the cap, so one test
	// takes the fast path.
	data, i, n, codes := r.d.buf, r.i, r.n, min(plainCodes, 2*uint(r.maxSites))
	out := buf[k:]
	for len(out) > 0 && i+1 < len(data) {
		code, j := plain(data, i)
		if code-2 >= codes {
			break
		}
		out[0] = Step{N: 1, Event: codeEvent(code)}
		out, i, n = out[1:], j, n+1
	}
	if end := len(buf) - len(out); end > k {
		r.i, r.n, r.d.ev = i, n, buf[end-1].Event
		return end
	}
	return k
}

// step decodes the step at r.i, whatever its form, into *out and holds it
// to the limits. At the footer code, the end of the stream or a refused
// step it reports false and ends the pass, making the end-of-stream event
// count check.
func (r *Steps) step(out *Step) bool {
	start := r.i
	f, i, err := r.d.next(start)
	switch {
	case err != nil:
	case f == formEnd:
	case f == formFooter:
		r.end, r.count = start, i
	case f == formRun:
		switch {
		case r.n == 0:
			err = errors.New("trace: run marker before any event")
		case r.n > r.maxEvents || r.d.n > r.maxEvents-r.n:
			err = fmt.Errorf("trace: run of %d after %d events: %w", r.d.n, r.n, ErrTooLarge)
		default:
			*out = Step{N: r.d.n, Event: r.d.ev, Run: true}
			r.i, r.n = i, r.n+r.d.n
			return true
		}
	case uint32(r.d.ev.Site) >= r.maxSites:
		err = fmt.Errorf("trace: site %d exceeds the %d-site cap: %w", r.d.ev.Site, r.maxSites, ErrTooLarge)
	default:
		*out = Step{N: 1, Event: r.d.ev}
		r.i, r.n = i, r.n+1
		return true
	}
	if r.n > r.maxEvents {
		err = fmt.Errorf("trace: %d events: %w", r.n, ErrTooLarge)
	}
	if err != nil && r.trusted {
		panic(corrupt(err))
	}
	r.done, r.err = true, err
	return false
}

// drain feeds the rest of the pass to c, a batch at a time, with the
// calls every collector gets: a plain code or a switch escape is one
// RecordBranch or RecordSwitch, a run marker one RecordRun or
// RecordSwitchRun even when it repeats once, switch events go only to a
// SwitchCollector, and a nil c gets nothing.
func (r *Steps) drain(c Collector) {
	var buf [BatchSize]Step
	sw, _ := c.(SwitchCollector)
	counts, _ := c.(*Counts)
	for b := r.Next(buf[:]); len(b) > 0; b = r.Next(buf[:]) {
		switch {
		case counts != nil:
			counts.addSteps(b)
			continue
		case c == nil:
			continue
		}
		for k := range b {
			st := &b[k]
			switch {
			case st.Switch && sw == nil:
			case st.Switch && st.Run:
				sw.RecordSwitchRun(st.Site, st.Outcome, st.N)
			case st.Switch:
				sw.RecordSwitch(st.Site, st.Outcome)
			case st.Run:
				c.RecordRun(st.Site, st.Taken, st.N)
			default:
				c.RecordBranch(st.Site, st.Taken)
			}
		}
	}
}

package trace

// Cursor pulls a sealed slab's events one at a time, in recorded order.
// It is the pull-side twin of ReplayInto, for a consumer that interleaves
// the stream with control flow of its own (replicate.Walk steps a program
// through it) and so cannot take a callback per event. An RLE run costs
// one decode, then one decrement per repeated event.
type Cursor struct {
	buf []byte
	i   int
	ev  Event
	// rep counts the deliveries of ev still due.
	rep uint64
}

// Cursor returns a cursor positioned before the slab's first event.
func (s *Slab) Cursor() Cursor {
	s.mustSealed("Cursor")
	return Cursor{buf: s.buf}
}

// Next returns the next event, or false once the stream is exhausted.
// It is small enough to inline, so a consumer pays a call only once per
// encoded code, not per event.
func (c *Cursor) Next() (Event, bool) {
	if c.rep == 0 && !c.decode() {
		return Event{}, false
	}
	c.rep--
	return c.ev, true
}

// decode reads the next code into ev and rep, the number of times ev is
// now due, and reports false at the end of the stream. A run marker
// repeats whichever event came last, branch or switch, exactly as in
// replayBytes.
func (c *Cursor) decode() bool {
	buf, i := c.buf, c.i
	if i >= len(buf) {
		return false
	}
	var code uint64
	if b := buf[i]; b < 0x80 {
		code, i = uint64(b), i+1
	} else {
		code, i = nextUvarint(buf, i)
	}
	c.rep = 1
	if code != 1 {
		c.ev = Event{Site: int32(code>>1) - 1, Taken: code&1 == 1}
		c.i = i
		return true
	}
	var n uint64
	n, i = nextUvarint(buf, i)
	if n == 0 { // switch escape
		var sc, oc uint64
		sc, i = decodeUvarint(buf, i)
		oc, i = decodeUvarint(buf, i)
		c.ev = Event{Site: int32(sc - 1), Switch: true, Outcome: int32(oc)}
	} else {
		c.rep = n
	}
	c.i = i
	return true
}

// nextUvarint is decodeUvarint with the one- and two-byte forms inline,
// as in replayBytes: site codes and run lengths nearly always take one or
// two bytes.
func nextUvarint(buf []byte, i int) (uint64, int) {
	if i < len(buf) && buf[i] < 0x80 {
		return uint64(buf[i]), i + 1
	}
	if i+1 < len(buf) && buf[i+1] < 0x80 {
		return uint64(buf[i]&0x7f) | uint64(buf[i+1])<<7, i + 2
	}
	return decodeUvarint(buf, i)
}

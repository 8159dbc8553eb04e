package trace

// Cursor pulls a sealed slab's events one at a time, in recorded order.
// It is the pull-side consumer of the decoder that ReplayInto pushes
// from, for a consumer that interleaves the stream with control flow of
// its own (replicate.Walk steps a program through it) and so cannot take a
// callback per event. An RLE run costs one decoded step, then one
// decrement per repeated event.
type Cursor struct {
	d decoder
	i int
	// rep counts the deliveries of d.ev still due.
	rep uint64
}

// Cursor returns a cursor positioned before the slab's first event.
func (s *Slab) Cursor() Cursor {
	s.mustSealed("Cursor")
	return Cursor{d: decoder{buf: s.buf}}
}

// Next returns the next event, or false once the stream is exhausted.
// It is small enough to inline, so a consumer pays a call only once per
// encoded step, not per event.
func (c *Cursor) Next() (Event, bool) {
	if c.rep == 0 && !c.step() {
		return Event{}, false
	}
	c.rep--
	return c.d.ev, true
}

// step decodes the next step into d and rep, and reports false at the end
// of the stream.
func (c *Cursor) step() bool {
	if c.i+1 < len(c.d.buf) {
		if code, j := plain(c.d.buf, c.i); code-2 < plainCodes {
			c.d.ev, c.i, c.rep = codeEvent(code), j, 1
			return true
		}
	}
	st, j, err := c.d.next(c.i)
	c.i = j
	switch {
	case err != nil:
		panic(corrupt(err))
	case st == formEvent:
		c.rep = 1
	case st == formRun:
		c.rep = c.d.n
	default:
		return false
	}
	return true
}

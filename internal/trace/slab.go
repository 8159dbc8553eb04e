package trace

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// RecordBranch implements Collector.
func (l *Log) RecordBranch(site int32, taken bool) {
	l.Seen++
	if l.Max != 0 && len(l.Events) >= l.Max {
		return
	}
	l.Events = append(l.Events, Event{Site: site, Taken: taken})
}

// RecordSwitch implements SwitchCollector.
func (l *Log) RecordSwitch(site, outcome int32) {
	l.Seen++
	if l.Max != 0 && len(l.Events) >= l.Max {
		return
	}
	l.Events = append(l.Events, Event{Site: site, Switch: true, Outcome: outcome})
}

// RecordSwitchRun implements SwitchCollector; Seen counts the whole run
// even when the cap truncates the stored events.
func (l *Log) RecordSwitchRun(site, outcome int32, n uint64) {
	l.Seen += n
	for ; n > 0; n-- {
		if l.Max != 0 && len(l.Events) >= l.Max {
			return
		}
		l.Events = append(l.Events, Event{Site: site, Switch: true, Outcome: outcome})
	}
}

// RecordBranch implements Collector.
func (c *Counts) RecordBranch(site int32, taken bool) {
	if taken {
		c.Taken[site]++
	} else {
		c.NotTaken[site]++
	}
}

// Slab is the record-once/replay-many in-memory branch trace and the one
// BLTRACE1 codec: its buffer holds the event stream of one interpreted run
// in exactly the wire encoding (see magic), so two million branch events
// occupy a few hundred kilobytes to a few megabytes. A Slab is recorded by
// the interpreter's fast-path hook (interp.Machine.Rec) or, as a
// Collector, through any live hook; it is then sealed, cached as an
// immutable artifact, and replayed into any number of collectors at
// memory-bandwidth speed — no interpreter dispatch per event.
type Slab struct {
	buf    []byte
	last   uint64
	run    uint64
	n      uint64
	sealed bool
	cks    []slabCk
	lastCk uint64
}

// slabCk is an RLE-aligned replay checkpoint: buf[off:] starts with a
// self-contained code — a plain event or a switch escape, never a bare run
// marker, which would need the previous event's state — with done events
// encoded before it. Record drops one roughly every ckEvery events, and
// scanEvents recomputes them at the same places for adopted bytes;
// ReplayPartitioned splits the stream at them.
type slabCk struct {
	off  int
	done uint64
}

// ckEvery is the checkpoint spacing in events: coarse enough that the
// recording hot path pays one predictable compare per event and the side
// table stays a few dozen entries per million events, fine enough to cut
// any replay-worthy slab into balanced segments.
const ckEvery = 8192

// NewSlab creates an empty slab. sizeHint is the expected number of events
// (a branch budget); it pre-sizes the buffer and may be 0.
func NewSlab(sizeHint int) *Slab {
	capBytes := sizeHint
	if capBytes < 1024 {
		capBytes = 1024
	}
	if capBytes > 1<<24 {
		capBytes = 1 << 24
	}
	return &Slab{buf: make([]byte, 0, capBytes)}
}

// Record appends one branch event. It must not be called after Seal.
func (s *Slab) Record(site int32, taken bool) {
	code := (uint64(site)+1)<<1 | b2u(taken)
	s.n++
	if code == s.last {
		s.run++
		return
	}
	s.startCode()
	s.buf = binary.AppendUvarint(s.buf, code)
	s.last = code
}

// RecordSwitch appends one N-way dispatch event as the switch escape
// (uvarint 1, 0, site+1, outcome). Like Record it must not be called after
// Seal, and repeats fold into the shared RLE run state.
func (s *Slab) RecordSwitch(site, outcome int32) {
	key := swKey(site, outcome)
	s.n++
	if key == s.last {
		s.run++
		return
	}
	s.startCode()
	s.buf = binary.AppendUvarint(s.buf, 1)
	s.buf = binary.AppendUvarint(s.buf, 0)
	s.buf = binary.AppendUvarint(s.buf, uint64(site)+1)
	s.buf = binary.AppendUvarint(s.buf, uint64(outcome))
	s.last = key
}

// startCode prepares for the code of the event just counted: it writes the
// pending run, then drops a checkpoint if ckEvery events have passed.
func (s *Slab) startCode() {
	s.flushRun()
	if s.n-1-s.lastCk >= ckEvery {
		s.cks = append(s.cks, slabCk{off: len(s.buf), done: s.n - 1})
		s.lastCk = s.n - 1
	}
}

func (s *Slab) flushRun() {
	if s.run > 0 {
		s.buf = binary.AppendUvarint(s.buf, 1)
		s.buf = binary.AppendUvarint(s.buf, s.run)
		s.run = 0
	}
}

var (
	_ Collector       = (*Slab)(nil)
	_ SwitchCollector = (*Slab)(nil)
)

// RecordBranch implements Collector; it is Record.
func (s *Slab) RecordBranch(site int32, taken bool) { s.Record(site, taken) }

// RecordRun implements Collector: the run folds into the RLE state, so
// the slab ends exactly as after n Record calls, checkpoints included.
func (s *Slab) RecordRun(site int32, taken bool, n uint64) {
	if n == 0 {
		return
	}
	s.Record(site, taken)
	s.run += n - 1
	s.n += n - 1
}

// RecordSwitchRun implements SwitchCollector, as RecordRun does Collector.
func (s *Slab) RecordSwitchRun(site, outcome int32, n uint64) {
	if n == 0 {
		return
	}
	s.RecordSwitch(site, outcome)
	s.run += n - 1
	s.n += n - 1
}

// Seal flushes the pending run and freezes the slab; budget-truncated runs
// (the interpreter stopping at MaxBranches) are sealed exactly where they
// stopped. Seal is idempotent, and a sealed slab is safe for concurrent
// replay from multiple goroutines.
func (s *Slab) Seal() {
	if s.sealed {
		return
	}
	s.flushRun()
	s.sealed = true
}

// Len is the number of recorded events.
func (s *Slab) Len() uint64 { return s.n }

// EncodedBytes is the size of the encoded event stream.
func (s *Slab) EncodedBytes() int { return len(s.buf) }

// decodeUvarint decodes the uvarint at buf[i:], returning the new offset.
// A malformed slab is a programming error — Record produces well-formed
// bytes, and ReadSlab and OpenSealed validate bytes from outside before a
// slab adopts them — so corruption panics instead of returning an error.
func decodeUvarint(buf []byte, i int) (uint64, int) {
	v, k := binary.Uvarint(buf[i:])
	if k <= 0 {
		panic(fmt.Sprintf("trace: corrupt slab at byte %d", i))
	}
	return v, i + k
}

// Replay feeds every recorded conditional-branch event, in order, to fn;
// switch events are skipped.
func (s *Slab) Replay(fn func(site int32, taken bool)) {
	s.mustSealed("Replay")
	replayBytes(s.buf, fn, func(site int32, taken bool, n uint64) {
		for ; n > 0; n-- {
			fn(site, taken)
		}
	}, dropSwitch, dropSwitchRun)
}

// ReplayRuns feeds the branch events as (site, taken, count) runs — the
// run-length fast path for order-insensitive consumers such as Counts.
// Consecutive calls may repeat the same (site, taken) pair. Switch events
// are skipped.
func (s *Slab) ReplayRuns(fn func(site int32, taken bool, n uint64)) {
	s.mustSealed("ReplayRuns")
	replayBytes(s.buf, func(site int32, taken bool) { fn(site, taken, 1) }, fn, dropSwitch, dropSwitchRun)
}

// Events decodes the whole slab (tests and small consumers).
func (s *Slab) Events() []Event {
	s.mustSealed("Events")
	l := &Log{Events: make([]Event, 0, s.n)}
	s.ReplayInto(l)
	return l.Events
}

// WriteTo writes the slab as a BLTRACE1 stream: the header, the event
// bytes as they are, and the footer. It is the format's only writer, and
// ReadSlab reads the result back into an identical slab.
func (s *Slab) WriteTo(w io.Writer) (int64, error) {
	s.mustSealed("WriteTo")
	footer := binary.AppendUvarint([]byte{0}, s.n)
	var total int64
	for _, part := range [][]byte{[]byte(magic), s.buf, footer} {
		n, err := w.Write(part)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

func (s *Slab) mustSealed(op string) {
	if !s.sealed {
		panic("trace: Slab." + op + " before Seal")
	}
}

// eventPool recycles Event slices across runner jobs: Batcher buffers draw
// their storage here, so a parallel experiment sweep stops reallocating
// per-job event storage.
var eventPool = sync.Pool{
	New: func() any { return make([]Event, 0, batchSize) },
}

// batchSize is the Batcher flush threshold: 4096 events (32 KiB) stay well
// inside L2 while amortising the per-collector dispatch.
const batchSize = 4096

// Batcher is the live-path answer to per-branch fan-out cost: it buffers
// events and flushes them collector-by-collector in batches, so a hot
// interpreter loop pays one append per event instead of one interface
// call per collector per event. Branch and switch events share the buffer,
// so each collector sees them in execution order, exactly as if it were
// the only one. Flush must be called after the run (bench.runCompiled
// does); Release returns the buffer to the shared pool.
type Batcher struct {
	cs  []Collector
	sws []SwitchCollector // sws[i] is cs[i]'s switch entry point, or nil
	buf []Event
}

// NewBatcher wraps the collectors.
func NewBatcher(cs ...Collector) *Batcher {
	b := &Batcher{cs: cs, sws: make([]SwitchCollector, len(cs)), buf: eventPool.Get().([]Event)[:0]}
	for i, c := range cs {
		b.sws[i], _ = c.(SwitchCollector)
	}
	return b
}

// RecordBranch buffers one conditional-branch event.
func (b *Batcher) RecordBranch(site int32, taken bool) {
	b.buf = append(b.buf, Event{Site: site, Taken: taken})
	if len(b.buf) >= batchSize {
		b.Flush()
	}
}

// RecordSwitch buffers one switch event; collectors without switch support
// skip it at flush.
func (b *Batcher) RecordSwitch(site, outcome int32) {
	b.buf = append(b.buf, Event{Site: site, Switch: true, Outcome: outcome})
	if len(b.buf) >= batchSize {
		b.Flush()
	}
}

// Flush drains the buffer into every collector.
func (b *Batcher) Flush() {
	for ci, c := range b.cs {
		sw := b.sws[ci]
		for _, ev := range b.buf {
			if !ev.Switch {
				c.RecordBranch(ev.Site, ev.Taken)
			} else if sw != nil {
				sw.RecordSwitch(ev.Site, ev.Outcome)
			}
		}
	}
	b.buf = b.buf[:0]
}

// Release flushes and returns the buffer to the pool. The Batcher must not
// be used afterwards.
func (b *Batcher) Release() {
	b.Flush()
	if b.buf != nil {
		eventPool.Put(b.buf[:0])
		b.buf = nil
	}
}

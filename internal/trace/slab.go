package trace

import (
	"encoding/binary"
	"io"
)

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
}

// NewSlab creates an empty slab. sizeHint is the expected number of events
// (a branch budget); it pre-sizes the buffer and may be 0.
func NewSlab(sizeHint int) *Slab {
	return &Slab{buf: make([]byte, 0, min(max(sizeHint, 1024), 1<<24))}
}

// Record appends one branch event. It must not be called after Seal.
func (s *Slab) Record(site int32, taken bool) {
	code := (uint64(site) + 1) << 1
	if taken {
		code |= 1
	}
	s.n++
	if code == s.last {
		s.run++
		return
	}
	s.flushRun()
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
	s.flushRun()
	s.buf = binary.AppendUvarint(s.buf, 1)
	s.buf = binary.AppendUvarint(s.buf, 0)
	s.buf = binary.AppendUvarint(s.buf, uint64(site)+1)
	s.buf = binary.AppendUvarint(s.buf, uint64(outcome))
	s.last = key
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
// the slab ends exactly as after n Record calls.
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

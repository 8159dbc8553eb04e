// Package trace defines the branch-event plumbing between the interpreter
// and the analyses, plus a compact on-disk trace format mirroring the
// paper's profiling tool (which wrote branch number + direction to a file,
// about 10 MB for 50 million branches in compressed form; our varint+RLE
// encoding is in the same ballpark).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// Collector consumes conditional-branch events keyed on the dense site
// number, the only identity a trace records. RecordRun delivers a maximal
// RLE run of n identical outcomes as one call, and the contract is strict:
// RecordRun(s, t, n) must leave the collector in a state bit-identical to
// n consecutive RecordBranch(s, t) calls, so replaying through runs is a
// pure speedup, never an approximation (pinned by
// FuzzRunCollectorEquivalence). Live interpreter hooks reach a Collector
// through interp.BranchHook.
type Collector interface {
	RecordBranch(site int32, taken bool)
	RecordRun(site int32, taken bool, n uint64)
}

// Event is one recorded branch outcome. Switch marks an N-way dispatch
// event, whose selected successor index is Outcome (Taken is meaningless
// then); otherwise the event is a conditional branch and Outcome is 0.
type Event struct {
	Site    int32
	Taken   bool
	Switch  bool
	Outcome int32
}

// Log records events in memory, up to an optional cap.
type Log struct {
	Events []Event
	// Max bounds the number of recorded events (0 = unlimited); events
	// beyond the cap are dropped but still counted in Seen.
	Max  int
	Seen uint64
}

var (
	_ Collector       = (*Log)(nil)
	_ SwitchCollector = (*Log)(nil)
)

// Counts accumulates per-site taken/not-taken totals, the "profile"
// strategy's entire data requirement.
type Counts struct {
	Taken    []uint64
	NotTaken []uint64
}

var _ Sharded = (*Counts)(nil)

// NewCounts sizes the tables for nSites branch sites.
func NewCounts(nSites int) *Counts {
	return &Counts{Taken: make([]uint64, nSites), NotTaken: make([]uint64, nSites)}
}

// Total returns the number of events recorded for site s.
func (c *Counts) Total(s int32) uint64 { return c.Taken[s] + c.NotTaken[s] }

// TotalAll sums events across all sites.
func (c *Counts) TotalAll() uint64 {
	var n uint64
	for i := range c.Taken {
		n += c.Taken[i] + c.NotTaken[i]
	}
	return n
}

// Executed counts the sites that were executed at least once.
func (c *Counts) Executed() int {
	n := 0
	for i := range c.Taken {
		if c.Taken[i]+c.NotTaken[i] > 0 {
			n++
		}
	}
	return n
}

const magic = "BLTRACE1"

// Writer streams events to an io.Writer in the on-disk format:
//
//	header:  "BLTRACE1"
//	events:  uvarint( (site+1)<<1 | taken )   — +1 keeps 0 as terminator
//	footer:  uvarint(0) then uvarint(total event count)
//
// Consecutive repeats of the same (site, taken) pair are run-length
// encoded as uvarint(1) uvarint(repeat count): the value 1 cannot occur as
// an event code because site+1 >= 1 shifted left is >= 2.
//
// Switch (N-way dispatch) events use the run marker's one unused slot — a
// zero-length run, previously a decode error — as an escape:
//
//	switch:  uvarint(1) uvarint(0) uvarint(site+1) uvarint(outcome)
//
// The escape is self-contained, and a run marker after it repeats the
// switch event exactly as it would a branch event. Streams containing
// only conditional branches are byte-identical to the original format.
type Writer struct {
	w      *bufio.Writer
	last   uint64
	run    uint64
	total  uint64
	closed bool
}

var (
	_ Collector       = (*Writer)(nil)
	_ SwitchCollector = (*Writer)(nil)
)

// NewWriter writes the header and returns a streaming writer.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func (w *Writer) putUvarint(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.w.Write(buf[:n]) // errors surface at Close via Flush
}

// RecordBranch implements Collector.
func (w *Writer) RecordBranch(site int32, taken bool) {
	code := (uint64(site)+1)<<1 | b2u(taken)
	w.total++
	if code == w.last {
		w.run++
		return
	}
	w.flushRun()
	w.putUvarint(code)
	w.last = code
}

func (w *Writer) flushRun() {
	if w.run > 0 {
		w.putUvarint(1)
		w.putUvarint(w.run)
		w.run = 0
	}
}

// swKey is the synthetic RLE key for a switch event. Bit 63 keeps it
// disjoint from every branch event code, whose site field caps the code
// below 2^33.
func swKey(site, outcome int32) uint64 {
	return 1<<63 | uint64(uint32(site))<<32 | uint64(uint32(outcome))
}

// RecordSwitch implements SwitchCollector, emitting the switch escape.
func (w *Writer) RecordSwitch(site, outcome int32) {
	w.RecordSwitchRun(site, outcome, 1)
}

// RecordSwitchRun implements SwitchCollector on the wire encoder.
func (w *Writer) RecordSwitchRun(site, outcome int32, n uint64) {
	if n == 0 {
		return
	}
	key := swKey(site, outcome)
	w.total += n
	if key == w.last {
		w.run += n
		return
	}
	w.flushRun()
	w.putUvarint(1)
	w.putUvarint(0)
	w.putUvarint(uint64(site) + 1)
	w.putUvarint(uint64(outcome))
	w.last = key
	w.run = n - 1
}

// Close flushes pending runs and the footer. The Writer must not be used
// afterwards.
func (w *Writer) Close() error {
	if w.closed {
		return errors.New("trace: writer already closed")
	}
	w.closed = true
	w.flushRun()
	w.putUvarint(0)
	w.putUvarint(w.total)
	return w.w.Flush()
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// bufReaderPool recycles the Reader's 64 KiB decode buffer across
// decodes. The service's batch path decodes many uploaded BLTRACE1
// streams concurrently; without pooling, every upload allocates (and
// promptly discards) a fresh bufio buffer.
var bufReaderPool = sync.Pool{
	New: func() any { return bufio.NewReaderSize(nil, 1<<16) },
}

// Reader decodes a trace written by Writer.
type Reader struct {
	r     *bufio.Reader
	lim   Limits
	last  Event
	valid bool
	run   uint64
	done  bool
	count uint64
	total uint64
}

// NewReader validates the header and returns a reader enforcing
// DefaultLimits; use NewReaderLimits to choose different bounds.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderLimits(r, DefaultLimits())
}

// newReader validates the header; the caller sets limits. The decode
// buffer comes from the shared pool; Release returns it.
func newReader(r io.Reader) (*Reader, error) {
	br := bufReaderPool.Get().(*bufio.Reader)
	br.Reset(r)
	release := func() {
		br.Reset(nil)
		bufReaderPool.Put(br)
	}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		release()
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != magic {
		release()
		return nil, fmt.Errorf("trace: bad magic %q", hdr)
	}
	return &Reader{r: br}, nil
}

// Release returns the Reader's decode buffer to the package pool. It is
// optional — an unreleased buffer is simply collected — but the hot
// decode paths (ReadSlab, ReadAll) call it so concurrent uploads stop
// churning 64 KiB allocations. The Reader must not be used afterwards.
func (r *Reader) Release() {
	if r.r != nil {
		r.r.Reset(nil)
		bufReaderPool.Put(r.r)
		r.r = nil
	}
}

// Next returns the next event, or io.EOF after the last one. A corrupt
// stream yields a descriptive error.
func (r *Reader) Next() (Event, error) {
	if r.run > 0 {
		r.run--
		r.count++
		if err := r.checkEvents(); err != nil {
			return Event{}, err
		}
		return r.last, nil
	}
	if r.done {
		return Event{}, io.EOF
	}
	code, err := binary.ReadUvarint(r.r)
	if err != nil {
		return Event{}, fmt.Errorf("trace: truncated stream: %w", err)
	}
	switch code {
	case 0: // footer
		r.done = true
		total, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("trace: truncated footer: %w", err)
		}
		r.total = total
		if r.count != total {
			return Event{}, fmt.Errorf("trace: footer count %d != decoded %d", total, r.count)
		}
		return Event{}, io.EOF
	case 1: // run-length repeat of the previous event, or a switch escape
		n, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("trace: truncated run: %w", err)
		}
		if n == 0 {
			// Switch escape: uvarint(site+1) uvarint(outcome).
			sc, err := binary.ReadUvarint(r.r)
			if err != nil {
				return Event{}, fmt.Errorf("trace: truncated switch event: %w", err)
			}
			if sc == 0 {
				return Event{}, errors.New("trace: switch event with zero site code")
			}
			if sc-1 > math.MaxInt32 {
				return Event{}, fmt.Errorf("trace: switch site %d overflows int32", sc-1)
			}
			oc, err := binary.ReadUvarint(r.r)
			if err != nil {
				return Event{}, fmt.Errorf("trace: truncated switch outcome: %w", err)
			}
			if oc > math.MaxInt32 {
				return Event{}, fmt.Errorf("trace: switch outcome %d overflows int32", oc)
			}
			ev := Event{Site: int32(sc - 1), Switch: true, Outcome: int32(oc)}
			if r.lim.MaxSites > 0 && ev.Site >= r.lim.MaxSites {
				return Event{}, fmt.Errorf("trace: site %d exceeds the %d-site cap: %w", ev.Site, r.lim.MaxSites, ErrTooLarge)
			}
			r.last = ev
			r.valid = true
			r.count++
			if err := r.checkEvents(); err != nil {
				return Event{}, err
			}
			return ev, nil
		}
		if !r.valid {
			return Event{}, errors.New("trace: run marker before any event")
		}
		r.run = n - 1
		r.count++
		if err := r.checkEvents(); err != nil {
			return Event{}, err
		}
		return r.last, nil
	default:
		site := code>>1 - 1 // code >= 2 here, so this cannot underflow
		if site > math.MaxInt32 {
			return Event{}, fmt.Errorf("trace: site %d in code %d overflows int32", site, code)
		}
		ev := Event{Site: int32(site), Taken: code&1 == 1}
		if r.lim.MaxSites > 0 && ev.Site >= r.lim.MaxSites {
			return Event{}, fmt.Errorf("trace: site %d exceeds the %d-site cap: %w", ev.Site, r.lim.MaxSites, ErrTooLarge)
		}
		r.last = ev
		r.valid = true
		r.count++
		if err := r.checkEvents(); err != nil {
			return Event{}, err
		}
		return ev, nil
	}
}

// checkEvents enforces the event cap after each decoded event.
func (r *Reader) checkEvents() error {
	if r.lim.MaxEvents != 0 && r.count > r.lim.MaxEvents {
		return fmt.Errorf("trace: %d events: %w", r.count, ErrTooLarge)
	}
	return nil
}

// ReadAll decodes the entire stream.
func ReadAll(r io.Reader) ([]Event, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	defer tr.Release()
	var out []Event
	for {
		ev, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

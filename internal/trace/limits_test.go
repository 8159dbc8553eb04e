package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"sync"
	"testing"
)

// encodeEvents builds a valid BLTRACE1 stream with the format's one
// encoder: record into a slab, write it out.
func encodeEvents(t testing.TB, events []Event) []byte {
	t.Helper()
	s := NewSlab(len(events))
	recordAll(s, events)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadSlabRoundTrip(t *testing.T) {
	events := []Event{{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 2, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}, {Site: 0, Taken: false}}
	data := encodeEvents(t, events)
	s, err := ReadSlab(bytes.NewReader(data), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Events(); len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	} else {
		for i, ev := range got {
			if ev != events[i] {
				t.Fatalf("event %d = %+v, want %+v", i, ev, events[i])
			}
		}
	}
}

func TestReadSlabEventLimit(t *testing.T) {
	var events []Event
	for i := 0; i < 100; i++ {
		events = append(events, Event{Site: int32(i % 3), Taken: i%2 == 0})
	}
	data := encodeEvents(t, events)
	if _, err := ReadSlab(bytes.NewReader(data), Limits{MaxEvents: 10}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	if _, err := ReadSlab(bytes.NewReader(data), Limits{MaxEvents: 100}); err != nil {
		t.Fatalf("at the cap exactly: %v", err)
	}
}

// TestReadSlabRunBombLimited is the attack the cap exists for: a few bytes
// that claim 2^50 identical events must fail at the cap, not materialise.
func TestReadSlabRunBombLimited(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("BLTRACE1")
	b := binary.AppendUvarint(nil, (uint64(7)+1)<<1|1) // one event, site 7 taken
	b = binary.AppendUvarint(b, 1)                     // run marker
	b = binary.AppendUvarint(b, 1<<50)                 // claimed repeats
	buf.Write(b)
	if _, err := ReadSlab(&buf, Limits{MaxEvents: 1000}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
}

// TestReadSlabSiteLimit is the site-ID bomb: a few-byte stream naming a
// huge site must be refused before any consumer sizes per-site tables
// from it.
func TestReadSlabSiteLimit(t *testing.T) {
	data := encodeEvents(t, []Event{{Site: 1 << 30, Taken: true}})
	if _, err := ReadSlab(bytes.NewReader(data), DefaultLimits()); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("default limits: got %v, want ErrTooLarge", err)
	}
	if _, err := ReadSlab(bytes.NewReader(data), Limits{MaxSites: 1 << 30}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("site at the cap: got %v, want ErrTooLarge", err)
	}
	if _, err := ReadSlab(bytes.NewReader(data), Limits{MaxSites: 1<<30 + 1}); err != nil {
		t.Fatalf("site under the cap: %v", err)
	}
	if _, err := ReadSlab(bytes.NewReader(data), Limits{}); err != nil {
		t.Fatalf("unlimited sites: %v", err)
	}
}

// TestReadSlabSiteOverflow hand-encodes a site beyond int32: it must be
// reported as corruption, not wrapped into a small alias.
func TestReadSlabSiteOverflow(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("BLTRACE1")
	buf.Write(binary.AppendUvarint(nil, (uint64(1)<<40)<<1)) // site 2^40-1
	_, err := ReadSlab(&buf, Limits{})
	if err == nil || errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want an overflow corruption error", err)
	}
}

func TestReadSlabByteLimit(t *testing.T) {
	var events []Event
	for i := 0; i < 10000; i++ {
		events = append(events, Event{Site: int32(i % 97), Taken: i%3 == 0})
	}
	data := encodeEvents(t, events)
	if _, err := ReadSlab(bytes.NewReader(data), Limits{MaxBytes: 64}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("got %v, want ErrTooLarge", err)
	}
	// The cap counts every byte, header and footer included: a stream of
	// exactly MaxBytes bytes fits, one byte less does not.
	n := int64(len(data))
	if s, err := ReadSlab(bytes.NewReader(data), Limits{MaxBytes: n}); err != nil || s.Len() != uint64(len(events)) {
		t.Fatalf("stream of exactly MaxBytes: %v", err)
	}
	if _, err := ReadSlab(bytes.NewReader(data), Limits{MaxBytes: n - 1}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("stream of MaxBytes+1: got %v, want ErrTooLarge", err)
	}
}

func TestReadSlabTruncated(t *testing.T) {
	data := encodeEvents(t, []Event{{Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 2, Taken: true}})
	for cut := 0; cut < len(data); cut++ {
		_, err := ReadSlab(bytes.NewReader(data[:cut]), DefaultLimits())
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes decoded cleanly", cut, len(data))
		}
	}
}

// TestReadSlabAdoptsStreamBytes pins in-place adoption: the slab's buffer
// is the stream's event bytes as sent, canonical or not, and replays to
// what the reference decoder reads from them.
func TestReadSlabAdoptsStreamBytes(t *testing.T) {
	cases := []struct {
		name     string
		data     []byte
		trailing int // bytes after the footer, which ReadSlab ignores
	}{
		{"recorded", encodeEvents(t, mixedEvents(3000, 5)), 0},
		{"repeated code", nonCanonicalRepeat, 0},
		{"consecutive runs", nonCanonicalRuns, 0},
		{"run after a switch", nonCanonicalSwitchRun, 0},
		{"bytes after the footer", append(append([]byte(nil), nonCanonicalRuns...), 0xff, 0xff), 2},
	}
	for _, c := range cases {
		s, err := ReadSlab(bytes.NewReader(c.data), DefaultLimits())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		end := len(c.data) - c.trailing - len(binary.AppendUvarint([]byte{0}, s.Len()))
		if events := c.data[len(magic):end]; !bytes.Equal(s.buf, events) {
			t.Fatalf("%s: slab bytes % x, stream events % x", c.name, s.buf, events)
		}
		want, err := refDecode(c.data, DefaultLimits())
		if err != nil {
			t.Fatalf("%s: reference decoder: %v", c.name, err)
		}
		if !reflect.DeepEqual(s.Events(), want) {
			t.Fatalf("%s: slab replays %+v, reference reads %+v", c.name, s.Events(), want)
		}
	}
}

// TestConcurrentReadSlab is the batch-path shape: many goroutines decode
// uploads at once, each getting a correct, independent slab.
func TestConcurrentReadSlab(t *testing.T) {
	want := []Event{
		{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 0, Taken: true},
		{Site: 4, Taken: false}, {Site: 2, Taken: true}, {Site: 2, Taken: false},
	}
	enc := encodeEvents(t, want)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s, err := ReadSlab(bytes.NewReader(enc), DefaultLimits())
				if err != nil {
					t.Errorf("ReadSlab: %v", err)
					return
				}
				if got := s.Events(); !reflect.DeepEqual(got, want) {
					t.Errorf("decoded %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Hand-built streams that Record never writes but the format allows.
var (
	// Site 0 taken three times without a run marker.
	nonCanonicalRepeat = []byte("BLTRACE1\x03\x03\x03\x00\x03")
	// Site 0 taken, then two run markers back to back: 1+2+5 events.
	nonCanonicalRuns = []byte("BLTRACE1\x03\x01\x02\x01\x05\x00\x08")
	// A switch escape (site 2, outcome 2), then a run repeating it, then
	// a branch.
	nonCanonicalSwitchRun = []byte("BLTRACE1\x01\x00\x03\x02\x01\x04\x04\x00\x06")
)

// longStream hand-encodes a stream long enough for partitioned replay:
// codes for a few sites, each followed by a long run, so checkpoints fall
// on codes between runs.
func longStream() []byte {
	b := []byte(magic)
	var n uint64
	for i := 0; i < 12; i++ {
		b = binary.AppendUvarint(b, uint64(i%5+1)<<1|uint64(i%2))
		b = binary.AppendUvarint(b, 1)
		b = binary.AppendUvarint(b, 4000)
		n += 4001
	}
	b = binary.AppendUvarint(b, 0)
	return binary.AppendUvarint(b, n)
}

// refReader is the reference decoder for FuzzReadSlab, written apart from
// scanEvents: it pulls one event at a time through a byte-capped
// bufio.Reader and checks the event cap after every event it returns.
type refReader struct {
	r     *bufio.Reader
	lim   Limits
	last  Event
	valid bool
	run   uint64
	done  bool
	count uint64
}

// cappedReader returns ErrTooLarge once more than limit bytes were read.
type cappedReader struct {
	r    io.Reader
	left int64
}

func (c *cappedReader) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, fmt.Errorf("input bytes: %w", ErrTooLarge)
	}
	if int64(len(p)) > c.left {
		p = p[:c.left]
	}
	n, err := c.r.Read(p)
	c.left -= int64(n)
	return n, err
}

func newRefReader(data []byte, lim Limits) (*refReader, error) {
	var r io.Reader = bytes.NewReader(data)
	if lim.MaxBytes > 0 {
		r = &cappedReader{r: r, left: lim.MaxBytes}
	}
	br := bufio.NewReader(r)
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", hdr)
	}
	return &refReader{r: br, lim: lim}, nil
}

// next returns the next event, or io.EOF after the last one.
func (r *refReader) next() (Event, error) {
	if r.run > 0 {
		r.run--
		return r.emit(r.last)
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
		if r.count != total {
			return Event{}, fmt.Errorf("trace: footer count %d != decoded %d", total, r.count)
		}
		return Event{}, io.EOF
	case 1: // run-length repeat of the previous event, or a switch escape
		n, err := binary.ReadUvarint(r.r)
		if err != nil {
			return Event{}, fmt.Errorf("trace: truncated run: %w", err)
		}
		if n > 0 {
			if !r.valid {
				return Event{}, errors.New("trace: run marker before any event")
			}
			r.run = n - 1
			return r.emit(r.last)
		}
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
		return r.first(Event{Site: int32(sc - 1), Switch: true, Outcome: int32(oc)})
	default:
		site := code>>1 - 1 // code >= 2 here, so this cannot underflow
		if site > math.MaxInt32 {
			return Event{}, fmt.Errorf("trace: site %d in code %d overflows int32", site, code)
		}
		return r.first(Event{Site: int32(site), Taken: code&1 == 1})
	}
}

// first checks a freshly decoded event against the site cap and makes it
// the one a run marker repeats.
func (r *refReader) first(ev Event) (Event, error) {
	if r.lim.MaxSites > 0 && ev.Site >= r.lim.MaxSites {
		return Event{}, fmt.Errorf("trace: site %d exceeds the %d-site cap: %w", ev.Site, r.lim.MaxSites, ErrTooLarge)
	}
	r.last, r.valid = ev, true
	return r.emit(ev)
}

// emit counts one delivered event against the event cap.
func (r *refReader) emit(ev Event) (Event, error) {
	r.count++
	if r.lim.MaxEvents != 0 && r.count > r.lim.MaxEvents {
		return Event{}, fmt.Errorf("trace: %d events: %w", r.count, ErrTooLarge)
	}
	return ev, nil
}

// refDecode reads a whole stream with the reference decoder.
func refDecode(data []byte, lim Limits) ([]Event, error) {
	r, err := newRefReader(data, lim)
	if err != nil {
		return nil, err
	}
	out := []Event{}
	for {
		ev, err := r.next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
}

// FuzzReadSlab throws arbitrary and mutated uploads at the daemon's trace
// decoder and holds it to the reference decoder: the same accept/reject
// decision, the same ErrTooLarge classification, and on accepted streams
// the same event sequence through Cursor. It must never panic, an accepted
// slab must replay identically whole and partitioned, and it must write
// itself back out as a stream that reads back to the same slab.
func FuzzReadSlab(f *testing.F) {
	f.Add(encodeEvents(f, []Event{{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 1, Taken: false}}))
	f.Add(encodeEvents(f, nil))
	f.Add([]byte("BLTRACE1"))
	f.Add([]byte("NOTATRACE"))
	bomb := append([]byte("BLTRACE1"), binary.AppendUvarint(nil, 4)...)
	bomb = append(bomb, binary.AppendUvarint(nil, 1)...)
	bomb = append(bomb, binary.AppendUvarint(nil, 1<<40)...)
	f.Add(bomb)
	f.Add(encodeEvents(f, []Event{{Site: 1 << 28, Taken: true}})) // site bomb
	f.Add(nonCanonicalRepeat)
	f.Add(nonCanonicalRuns)
	f.Add(nonCanonicalSwitchRun)
	f.Add(encodeEvents(f, mixedEvents(200, 6)))
	f.Add(longStream())
	lim := Limits{MaxEvents: 1 << 17, MaxSites: 1 << 12, MaxBytes: 1 << 16}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSlab(bytes.NewReader(data), lim)
		var c Cursor
		if err == nil {
			c = s.Cursor()
		}
		ref, refErr := newRefReader(data, lim)
		for i := 0; refErr == nil; i++ {
			ev, e := ref.next()
			if e == io.EOF {
				break
			}
			if e != nil {
				refErr = e
				break
			}
			if err == nil {
				if got, ok := c.Next(); !ok || got != ev {
					t.Fatalf("event %d: slab yields %+v (more: %v), reference %+v", i, got, ok, ev)
				}
			}
		}
		if (err == nil) != (refErr == nil) || errors.Is(err, ErrTooLarge) != errors.Is(refErr, ErrTooLarge) {
			t.Fatalf("ReadSlab: %v; reference decoder: %v", err, refErr)
		}
		if err != nil {
			return
		}
		if ev, ok := c.Next(); ok {
			t.Fatalf("slab yields %+v past the reference decoder's last event", ev)
		}
		if s.Len() > lim.MaxEvents {
			t.Fatalf("accepted %d events past the %d cap", s.Len(), lim.MaxEvents)
		}
		whole, parts := NewCounts(int(lim.MaxSites)), NewCounts(int(lim.MaxSites))
		s.ReplayInto(whole)
		s.ReplayPartitioned(4, parts)
		if !reflect.DeepEqual(whole, parts) {
			t.Fatal("partitioned replay differs from the single pass")
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding accepted slab: %v", err)
		}
		s2, err := ReadSlab(bytes.NewReader(buf.Bytes()), lim)
		if err != nil {
			t.Fatalf("re-decoding accepted slab: %v", err)
		}
		if s2.Len() != s.Len() || !bytes.Equal(s2.buf, s.buf) || !reflect.DeepEqual(s2.cks, s.cks) {
			t.Fatalf("round trip changed the slab: %d events, %d bytes -> %d events, %d bytes",
				s.Len(), len(s.buf), s2.Len(), len(s2.buf))
		}
	})
}

package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
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

// runLog records what a collector is fed, runs kept as runs, so a test
// can tell RecordRun from repeated RecordBranch calls.
type runLog struct{ calls []string }

func (l *runLog) RecordBranch(site int32, taken bool) {
	l.calls = append(l.calls, fmt.Sprintf("b%d/%v", site, taken))
}
func (l *runLog) RecordRun(site int32, taken bool, n uint64) {
	l.calls = append(l.calls, fmt.Sprintf("r%d/%v*%d", site, taken, n))
}
func (l *runLog) RecordSwitch(site, outcome int32) {
	l.calls = append(l.calls, fmt.Sprintf("s%d/%d", site, outcome))
}
func (l *runLog) RecordSwitchRun(site, outcome int32, n uint64) {
	l.calls = append(l.calls, fmt.Sprintf("S%d/%d*%d", site, outcome, n))
}

// TestReadSlabIntoFeedsLikeReplay pins ReadSlabInto's contract: the
// collector riding the validating pass sees exactly the calls a replay of
// the accepted slab makes, switch events only if it takes them, and the
// slab itself is ReadSlab's.
func TestReadSlabIntoFeedsLikeReplay(t *testing.T) {
	lim := Limits{MaxEvents: 1 << 17, MaxSites: 1 << 12}
	streams := [][]byte{
		encodeEvents(t, mixedEvents(3000, 1)),
		nonCanonicalRepeat, nonCanonicalRuns, nonCanonicalSwitchRun, longStream(),
	}
	for i, data := range streams {
		var fed, replayed runLog
		s, err := ReadSlabInto(bytes.NewReader(data), lim, &fed)
		if err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
		s.ReplayInto(&replayed)
		if !reflect.DeepEqual(fed.calls, replayed.calls) {
			t.Fatalf("stream %d: fed %v\nreplay %v", i, fed.calls, replayed.calls)
		}
		ref, err := ReadSlab(bytes.NewReader(data), lim)
		if err != nil || !bytes.Equal(ref.buf, s.buf) || ref.n != s.n {
			t.Fatalf("stream %d: ReadSlabInto's slab differs from ReadSlab's (%v)", i, err)
		}
		// A branch-only collector skips the switch events.
		fedCounts, replayCounts := NewCounts(8), NewCounts(8)
		if _, err := ReadSlabInto(bytes.NewReader(data), lim, fedCounts); err != nil {
			t.Fatal(err)
		}
		s.ReplayInto(replayCounts)
		if !reflect.DeepEqual(fedCounts, replayCounts) {
			t.Fatalf("stream %d: counts fed %v, replayed %v", i, fedCounts, replayCounts)
		}
	}
	if _, err := ReadSlabInto(bytes.NewReader(encodeEvents(t, []Event{{Site: 1 << 12}})), lim, &runLog{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("site past the cap: %v", err)
	}
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

// longStream hand-encodes a stream of 48,012 events in a few dozen bytes:
// codes for a few sites, each followed by a long run.
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
// the same event sequence through Cursor. It must never panic, and an
// accepted slab must write itself back out as a stream that reads back to
// the same slab.
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
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-encoding accepted slab: %v", err)
		}
		s2, err := ReadSlab(bytes.NewReader(buf.Bytes()), lim)
		if err != nil {
			t.Fatalf("re-decoding accepted slab: %v", err)
		}
		if s2.Len() != s.Len() || !bytes.Equal(s2.buf, s.buf) {
			t.Fatalf("round trip changed the slab: %d events, %d bytes -> %d events, %d bytes",
				s.Len(), len(s.buf), s2.Len(), len(s2.buf))
		}
	})
}

// buildSlab records a deterministic pseudo-random branch stream; biased
// outcomes produce genuine RLE runs.
func buildSlab(t testing.TB, seed int64, n int) *Slab {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := NewSlab(n)
	site := int32(0)
	for i := 0; i < n; i++ {
		if rng.Intn(10) == 0 {
			site = int32(rng.Intn(64))
		}
		s.Record(site, rng.Intn(4) != 0)
	}
	s.Seal()
	return s
}

// written is s as WriteTo writes it.
func written(t testing.TB, s *Slab) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSealedRoundTrip: a sealed slab written by WriteTo and adopted by
// AdoptStream is the same slab, byte for byte.
func TestSealedRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 100, 30000} {
		orig := buildSlab(t, int64(n)+1, n)
		got, err := AdoptStream(written(t, orig), Limits{}, nil)
		if err != nil {
			t.Fatalf("n=%d: AdoptStream: %v", n, err)
		}
		if got.Len() != orig.Len() || !bytes.Equal(got.buf, orig.buf) {
			t.Fatalf("n=%d: adopted %d events in %d bytes, wrote %d in %d", n, got.Len(), len(got.buf), orig.Len(), len(orig.buf))
		}
		if !reflect.DeepEqual(got.Events(), orig.Events()) {
			t.Fatalf("n=%d: events differ after round trip", n)
		}
	}
}

// TestSealedZeroCopy pins the zero-copy contract: the adopted slab's event
// bytes alias the stream, not a copy.
func TestSealedZeroCopy(t *testing.T) {
	data := written(t, buildSlab(t, 7, 5000))
	got, err := AdoptStream(data, Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.buf) == 0 || &got.buf[0] != &data[len(magic)] {
		t.Fatal("AdoptStream copied the event bytes instead of aliasing the stream")
	}
}

// TestSealedRejectsCorruption: truncations and a bad magic are errors from
// AdoptStream, never a slab.
func TestSealedRejectsCorruption(t *testing.T) {
	data := written(t, buildSlab(t, 3, 2000))
	for _, cut := range []int{0, 4, len(magic), len(magic) + 1, len(data) / 2, len(data) - 1} {
		if _, err := AdoptStream(data[:cut], Limits{}, nil); err == nil {
			t.Errorf("AdoptStream accepted a %d-byte truncation of %d bytes", cut, len(data))
		}
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := AdoptStream(bad, Limits{}, nil); err == nil {
		t.Error("AdoptStream accepted a bad magic")
	}
}

// TestSealedRejectsBadEventBytes covers streams with a well-formed header
// and footer around event bytes that Record never writes, or a footer
// count that is not the decoded one: each must be an error, not a slab
// that panics on replay.
func TestSealedRejectsBadEventBytes(t *testing.T) {
	orig := buildSlab(t, 5, 30000)
	cases := []struct {
		name string
		s    *Slab
	}{
		{"truncated varint", &Slab{buf: []byte{0x03, 0x83}, n: 1}},
		{"truncated run", &Slab{buf: []byte{0x03, 0x01}, n: 1}},
		{"truncated switch escape", &Slab{buf: []byte{0x01, 0x00, 0x03}, n: 1}},
		{"run before any event", &Slab{buf: []byte{0x01, 0x05}, n: 5}},
		{"footer code inside", &Slab{buf: []byte{0x03, 0x00, 0x03}, n: 2}},
		{"site past int32", &Slab{buf: binary.AppendUvarint(nil, 1<<40), n: 1}},
		{"event count", &Slab{buf: orig.buf, n: orig.n + 1}},
	}
	for _, c := range cases {
		c.s.sealed = true
		if _, err := AdoptStream(written(t, c.s), Limits{}, nil); err == nil {
			t.Errorf("%s: AdoptStream accepted the stream", c.name)
		}
	}
}

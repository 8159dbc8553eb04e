package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// readEvents decodes a BLTRACE1 stream through ReadSlab under
// DefaultLimits.
func readEvents(data []byte) ([]Event, error) {
	s, err := ReadSlab(bytes.NewReader(data), DefaultLimits())
	if err != nil {
		return nil, err
	}
	return s.Events(), nil
}

func TestRoundTripSimple(t *testing.T) {
	events := []Event{{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 0, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}}
	got, err := readEvents(encodeEvents(t, events))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatalf("decoded %+v, want %+v", got, events)
	}
}

func TestRoundTripEmpty(t *testing.T) {
	got, err := readEvents(encodeEvents(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("decoded %d events from empty trace", len(got))
	}
}

func TestRoundTripProperty(t *testing.T) {
	check := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		events := make([]Event, int(n))
		for i := range events {
			// Small site range provokes runs.
			events[i] = Event{Site: int32(rng.Intn(3)), Taken: rng.Intn(2) == 0}
		}
		got, err := readEvents(encodeEvents(t, events))
		return err == nil && len(got) == len(events) && (len(got) == 0 || reflect.DeepEqual(got, events))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLengthCompresses(t *testing.T) {
	const n = 100000
	s := NewSlab(0)
	for i := 0; i < n; i++ {
		s.RecordBranch(5, true)
	}
	s.Seal()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64 {
		t.Fatalf("RLE trace of %d identical events is %d bytes", n, buf.Len())
	}
	got, err := readEvents(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d, want %d", len(got), n)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := readEvents([]byte("NOTATRACE")); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestTruncatedStream(t *testing.T) {
	var events []Event
	for i := 0; i < 10; i++ {
		events = append(events, Event{Site: int32(i), Taken: i%2 == 0})
	}
	full := encodeEvents(t, events)
	if _, err := readEvents(full[:len(full)-3]); err == nil {
		t.Fatal("truncated trace decoded cleanly")
	}
}

func TestFooterCountMismatchDetected(t *testing.T) {
	raw := encodeEvents(t, []Event{{Site: 0, Taken: true}})
	// Corrupt the footer count (last byte is the uvarint count 1 → 7).
	raw[len(raw)-1] = 7
	if _, err := readEvents(raw); err == nil {
		t.Fatal("footer mismatch not detected")
	}
}

func TestLogCapAndSeen(t *testing.T) {
	l := &Log{Max: 3}
	for i := 0; i < 10; i++ {
		l.RecordBranch(1, true)
	}
	if len(l.Events) != 3 {
		t.Fatalf("len = %d, want 3", len(l.Events))
	}
	if l.Seen != 10 {
		t.Fatalf("seen = %d, want 10", l.Seen)
	}
}

func TestCounts(t *testing.T) {
	c := NewCounts(3)
	c.RecordBranch(0, true)
	c.RecordBranch(0, true)
	c.RecordBranch(0, false)
	c.RecordBranch(2, false)
	if c.Taken[0] != 2 || c.NotTaken[0] != 1 {
		t.Fatalf("site 0 counts = %d/%d", c.Taken[0], c.NotTaken[0])
	}
	if c.Total(0) != 3 || c.Total(1) != 0 || c.Total(2) != 1 {
		t.Fatal("totals wrong")
	}
	if c.TotalAll() != 4 {
		t.Fatalf("TotalAll = %d", c.TotalAll())
	}
	if c.Executed() != 2 {
		t.Fatalf("Executed = %d, want 2", c.Executed())
	}
}

// TestMultiFansOut: one replay pass with multiple collectors delivers the
// whole stream to each of them.
func TestMultiFansOut(t *testing.T) {
	a := NewCounts(1)
	b := &Log{}
	recordSlab([]Event{{Site: 0, Taken: true}, {Site: 0, Taken: false}}).ReplayInto(a, b)
	if a.Total(0) != 2 || len(b.Events) != 2 {
		t.Fatal("replay did not fan out")
	}
}

func TestReplay(t *testing.T) {
	events := []Event{{Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 0, Taken: false}}
	c := NewCounts(2)
	recordSlab(events).ReplayInto(c)
	if c.Taken[0] != 1 || c.NotTaken[0] != 1 || c.NotTaken[1] != 1 {
		t.Fatalf("replay counts wrong: %+v", c)
	}
}

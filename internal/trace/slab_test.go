package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// genEvents produces a stream with long runs (loop-shaped) and random
// jumps, the same shape the interpreter records.
func genEvents(rng *rand.Rand, n int) []Event {
	out := make([]Event, 0, n)
	for len(out) < n {
		site := int32(rng.Intn(40))
		taken := rng.Intn(2) == 1
		run := 1
		if rng.Intn(3) == 0 {
			run = rng.Intn(50) + 1
		}
		for i := 0; i < run && len(out) < n; i++ {
			out = append(out, Event{Site: site, Taken: taken})
		}
	}
	return out
}

func recordSlab(events []Event) *Slab {
	s := NewSlab(len(events))
	for _, ev := range events {
		s.Record(ev.Site, ev.Taken)
	}
	s.Seal()
	return s
}

func TestSlabRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	// Sizes chosen to hit empty, single-event, run-boundary, and
	// budget-truncated shapes (a budget stop just seals mid-stream, so any
	// prefix length must round-trip).
	for _, n := range []int{0, 1, 2, 3, 100, 4095, 4096, 4097, 20000} {
		events := genEvents(rng, n)
		s := recordSlab(events)
		if s.Len() != uint64(n) {
			t.Fatalf("n=%d: Len=%d", n, s.Len())
		}
		got := s.Events()
		if len(got) != n {
			t.Fatalf("n=%d: decoded %d events", n, len(got))
		}
		for i := range events {
			if got[i] != events[i] {
				t.Fatalf("n=%d: event %d = %+v, want %+v", n, i, got[i], events[i])
			}
		}
	}
}

// TestSlabReplayRunsMatchesReplay: the runs ReplayInto delivers, expanded,
// are the events the Cursor pulls one at a time, and both are the recorded
// stream.
func TestSlabReplayRunsMatchesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	events := genEvents(rng, 5000)
	s := recordSlab(events)
	var runs Log
	s.ReplayInto(&runs)
	var pulled []Event
	cur := s.Cursor()
	for ev, ok := cur.Next(); ok; ev, ok = cur.Next() {
		pulled = append(pulled, ev)
	}
	if len(runs.Events) != len(events) || len(pulled) != len(events) {
		t.Fatalf("runs expanded to %d events and the cursor pulled %d, want %d",
			len(runs.Events), len(pulled), len(events))
	}
	for i := range events {
		if runs.Events[i] != events[i] || pulled[i] != events[i] {
			t.Fatalf("event %d = %+v expanded, %+v pulled, want %+v", i, runs.Events[i], pulled[i], events[i])
		}
	}
}

func TestSlabWriteToReaderRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 777, 10000} {
		events := genEvents(rng, n)
		s := recordSlab(events)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ReadSlab(&buf, DefaultLimits())
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Len() != uint64(n) || (n > 0 && !reflect.DeepEqual(got.Events(), events)) {
			t.Fatalf("n=%d: decoded %d events that differ from the recorded ones", n, got.Len())
		}
		if !bytes.Equal(got.buf, s.buf) {
			t.Fatalf("n=%d: read slab differs from the written one in bytes", n)
		}
	}
}

// TestSlabMatchesWriterEncoding pins the BLTRACE1 wire format to bytes
// written out by hand, for both kinds of event, a run of each, and a
// multi-byte code, through Record and through the Collector entry points.
func TestSlabMatchesWriterEncoding(t *testing.T) {
	want := []byte("BLTRACE1")
	want = append(want,
		0x03,       // site 0 taken: (0+1)<<1 | 1
		0x01, 0x02, // run: two more
		0x04,                   // site 1 not taken: (1+1)<<1
		0x01, 0x00, 0x03, 0x03, // switch escape: site 2 (+1), outcome 3
		0x01, 0x01, // run: one more switch event
		0xdb, 0x04, // site 300 taken: 603 as a two-byte uvarint
		0x00, 0x07, // footer: seven events
	)
	recorded := NewSlab(0)
	for i := 0; i < 3; i++ {
		recorded.Record(0, true)
	}
	recorded.Record(1, false)
	recorded.RecordSwitch(2, 3)
	recorded.RecordSwitch(2, 3)
	recorded.Record(300, true)
	recorded.Seal()
	collected := NewSlab(0)
	collected.RecordRun(0, true, 3)
	collected.RecordBranch(1, false)
	collected.RecordSwitchRun(2, 3, 2)
	collected.RecordRun(300, true, 1)
	collected.Seal()
	for name, s := range map[string]*Slab{"Record": recorded, "Collector": collected} {
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%s: wrote % x, want % x", name, buf.Bytes(), want)
		}
	}
	got, err := ReadSlab(bytes.NewReader(want), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Events(), recorded.Events()) {
		t.Fatalf("hand-encoded stream decodes to %+v", got.Events())
	}
}

func TestSlabReplayBeforeSealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	s := NewSlab(0)
	s.Record(0, true)
	s.Cursor()
}

func TestSlabReplayInto(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	events := genEvents(rng, 2000)
	s := recordSlab(events)
	// Two collectors sharing one decode pass: both must see the full
	// ordered stream.
	counts := NewCounts(40)
	var log Log
	s.ReplayInto(counts, &log)
	var wantTaken, wantNot uint64
	for _, ev := range events {
		if ev.Taken {
			wantTaken++
		} else {
			wantNot++
		}
	}
	var gotTaken, gotNot uint64
	for i := range counts.Taken {
		gotTaken += counts.Taken[i]
		gotNot += counts.NotTaken[i]
	}
	if gotTaken != wantTaken || gotNot != wantNot {
		t.Fatalf("counts %d/%d, want %d/%d", gotTaken, gotNot, wantTaken, wantNot)
	}
	if len(log.Events) != len(events) {
		t.Fatalf("log saw %d events, want %d", len(log.Events), len(events))
	}
	for i, ev := range log.Events {
		if ev != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, ev, events[i])
		}
	}
}

package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// mixedEvents is a deterministic blend of branch and switch events with
// run-friendly repeats across both kinds.
func mixedEvents(n int, seed int64) []Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Event, 0, n)
	for len(out) < n {
		var ev Event
		if rng.Intn(3) == 0 {
			ev = Event{Site: int32(rng.Intn(5)), Switch: true, Outcome: int32(rng.Intn(4))}
		} else {
			ev = Event{Site: int32(rng.Intn(5)), Taken: rng.Intn(2) == 1}
		}
		reps := 1
		if rng.Intn(4) == 0 {
			reps = 1 + rng.Intn(20)
		}
		for ; reps > 0 && len(out) < n; reps-- {
			out = append(out, ev)
		}
	}
	return out
}

func recordAll(s *Slab, events []Event) {
	for _, ev := range events {
		if ev.Switch {
			s.RecordSwitch(ev.Site, ev.Outcome)
		} else {
			s.Record(ev.Site, ev.Taken)
		}
	}
	s.Seal()
}

// TestSwitchSlabRoundTrip pins that a slab with interleaved branch and
// switch events decodes back to exactly the recorded stream.
func TestSwitchSlabRoundTrip(t *testing.T) {
	events := mixedEvents(5000, 1)
	s := NewSlab(0)
	recordAll(s, events)
	if s.Len() != uint64(len(events)) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(events))
	}
	if got := s.Events(); !reflect.DeepEqual(got, events) {
		t.Fatalf("Events round-trip mismatch (got %d events, want %d)", len(got), len(events))
	}
}

// TestSwitchWireRoundTrip pins WriteTo/ReadSlab round-tripping of switch
// events, and that a slab filled through the Collector entry points
// writes the same stream as one filled by Record.
func TestSwitchWireRoundTrip(t *testing.T) {
	events := mixedEvents(3000, 2)
	collected := NewSlab(0)
	for _, ev := range events {
		if ev.Switch {
			collected.RecordSwitchRun(ev.Site, ev.Outcome, 1)
		} else {
			collected.RecordBranch(ev.Site, ev.Taken)
		}
	}
	collected.Seal()
	var buf bytes.Buffer
	if _, err := collected.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	s, err := ReadSlab(bytes.NewReader(buf.Bytes()), DefaultLimits())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Events(), events) {
		t.Fatalf("wire round-trip mismatch (got %d events, want %d)", s.Len(), len(events))
	}

	// Record emits the same byte stream for the same events.
	recorded := NewSlab(0)
	recordAll(recorded, events)
	var rb bytes.Buffer
	if _, err := recorded.WriteTo(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rb.Bytes(), buf.Bytes()) {
		t.Fatalf("Record and Collector encodings differ (%d vs %d bytes)", rb.Len(), buf.Len())
	}
}

// TestConditionalOnlyBytesUnchanged pins backward compatibility: a trace
// with no switch events must encode byte-identically to the historical
// format (no escapes appear).
func TestConditionalOnlyBytesUnchanged(t *testing.T) {
	s := NewSlab(0)
	for i := 0; i < 1000; i++ {
		s.Record(int32(i%7), i%3 == 0)
	}
	s.Seal()
	for i := 0; i < len(s.buf); {
		v, k := uvarintAt(s.buf, i)
		if v == 1 {
			n, k2 := uvarintAt(s.buf, i+k)
			if n == 0 {
				t.Fatalf("switch escape at byte %d in a conditional-only trace", i)
			}
			i += k + k2
			continue
		}
		i += k
	}
}

func uvarintAt(buf []byte, i int) (uint64, int) {
	v, j := decodeUvarint(buf, i)
	return v, j - i
}

// TestTargetCounts pins the histogram collector and its deterministic
// frequency ranking.
func TestTargetCounts(t *testing.T) {
	tc := NewTargetCounts(2)
	tc.RecordSwitch(0, 2)
	tc.RecordSwitchRun(0, 2, 4)
	tc.RecordSwitchRun(0, 1, 5)
	tc.RecordSwitch(3, 0) // grows past the hint
	tc.RecordRun(0, true, 100)
	tc.RecordBranch(1, false)
	if got := tc.Total(0); got != 10 {
		t.Fatalf("Total(0) = %d, want 10", got)
	}
	if got := tc.TotalAll(); got != 11 {
		t.Fatalf("TotalAll = %d, want 11", got)
	}
	// Outcomes 1 and 2 both have count 5; ties break by ascending outcome.
	want := []RankedOutcome{{Outcome: 1, Count: 5}, {Outcome: 2, Count: 5}}
	if rank := tc.Rank(0); !reflect.DeepEqual(rank, want) {
		t.Fatalf("Rank(0) = %v, want %v", rank, want)
	}
}

// TestSwitchReplayFanout pins that ReplayInto delivers switch events to
// switch-aware collectors and skips them for plain ones.
func TestSwitchReplayFanout(t *testing.T) {
	events := mixedEvents(65536, 3)
	s := NewSlab(0)
	recordAll(s, events)

	ms := &MaxSite{}
	tc := NewTargetCounts(0)
	counts := NewCounts(8)
	s.ReplayInto(ms, tc, counts)

	wantBr, wantSw := 0, 0
	wantTC := NewTargetCounts(0)
	wantCounts := NewCounts(8)
	for _, ev := range events {
		if ev.Switch {
			wantSw++
			wantTC.RecordSwitch(ev.Site, ev.Outcome)
		} else {
			wantBr++
			wantCounts.RecordBranch(ev.Site, ev.Taken)
		}
	}
	if !reflect.DeepEqual(tc.Sites, wantTC.Sites) {
		t.Fatalf("TargetCounts mismatch:\n got %v\nwant %v", tc.Sites, wantTC.Sites)
	}
	if !reflect.DeepEqual(counts, wantCounts) {
		t.Fatal("Counts saw switch events or missed branches")
	}
	if uint64(wantBr+wantSw) != s.Len() {
		t.Fatalf("event split %d+%d != %d", wantBr, wantSw, s.Len())
	}
	wantMS := &MaxSite{}
	for _, ev := range events {
		wantMS.RecordRun(ev.Site, false, 1)
	}
	if ms.N != wantMS.N {
		t.Fatalf("MaxSite %d, want %d", ms.N, wantMS.N)
	}

	// A Log collector preserves the full interleaved order.
	l := &Log{}
	s.ReplayInto(l)
	if !reflect.DeepEqual(l.Events, events) {
		t.Fatal("Log replay lost event order or kinds")
	}
}

// TestSwitchSealedRoundTrip pins that a sealed slab's stream carries
// switch escapes through WriteTo and AdoptStream unchanged.
func TestSwitchSealedRoundTrip(t *testing.T) {
	events := mixedEvents(49152, 4)
	s := NewSlab(0)
	recordAll(s, events)
	s2, err := AdoptStream(written(t, s), Limits{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s2.Events(), events) {
		t.Fatal("sealed round-trip mismatch")
	}
}

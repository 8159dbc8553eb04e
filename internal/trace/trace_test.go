package trace

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRoundTripSimple(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	events := []Event{{Site: 0, Taken: true}, {Site: 0, Taken: true}, {Site: 1, Taken: false}, {Site: 0, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}, {Site: 2, Taken: true}}
	for _, ev := range events {
		w.RecordBranch(ev.Site, ev.Taken)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(events) {
		t.Fatalf("decoded %d events, want %d", len(got), len(events))
	}
	for i := range events {
		if got[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], events[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(&buf)
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
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		for _, ev := range events {
			w.RecordBranch(ev.Site, ev.Taken)
		}
		if err := w.Close(); err != nil {
			return false
		}
		got, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		if len(got) != len(events) {
			return false
		}
		for i := range events {
			if got[i] != events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunLengthCompresses(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	for i := 0; i < n; i++ {
		w.RecordBranch(5, true)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 64 {
		t.Fatalf("RLE trace of %d identical events is %d bytes", n, buf.Len())
	}
	got, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("decoded %d, want %d", len(got), n)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("NOTATRACE"))); err == nil {
		t.Fatal("want error for bad magic")
	}
}

func TestTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.RecordBranch(int32(i), i%2 == 0)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	r, err := NewReader(bytes.NewReader(full[:len(full)-3]))
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := r.Next()
		if err == io.EOF {
			t.Fatal("truncated trace decoded to clean EOF")
		}
		if err != nil {
			return // expected: corruption detected
		}
	}
}

func TestFooterCountMismatchDetected(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.RecordBranch(0, true)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the footer count (last byte is the uvarint count 1 → 7).
	raw := buf.Bytes()
	raw[len(raw)-1] = 7
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var sawErr bool
	for {
		_, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
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

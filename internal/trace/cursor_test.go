package trace

import (
	"reflect"
	"testing"
)

// TestCursorMatchesEvents pins the pull cursor to the push replay: over
// mixed branch and switch streams with long runs of both kinds, and over
// large site IDs that take multi-byte codes, Next yields exactly the
// recorded events and then reports exhaustion, repeatedly.
func TestCursorMatchesEvents(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		events := mixedEvents(4000, seed)
		for i := range events {
			if i%7 == 0 {
				events[i].Site += 1000 // multi-byte codes
			}
		}
		s := NewSlab(0)
		recordAll(s, events)
		var got []Event
		c := s.Cursor()
		for {
			ev, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, ev)
		}
		if !reflect.DeepEqual(got, s.Events()) || !reflect.DeepEqual(got, events) {
			t.Fatalf("seed %d: cursor yielded %d events, want %d", seed, len(got), len(events))
		}
		if _, ok := c.Next(); ok {
			t.Fatalf("seed %d: exhausted cursor yielded another event", seed)
		}
	}
	empty := NewSlab(0)
	empty.Seal()
	c := empty.Cursor()
	if _, ok := c.Next(); ok {
		t.Fatal("empty slab yielded an event")
	}
}

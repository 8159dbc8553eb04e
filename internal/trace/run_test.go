package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestRunCollectorsMatchEventAtATime drives every trace-package collector
// both event-at-a-time (RecordBranch) and run-at-a-time (ReplayInto, which
// delivers each run marker as one RecordRun) and requires identical final
// state — including the Slab as a
// collector, whose two paths must produce byte-identical encodings, equal
// to the recorded slab's own.
func TestRunCollectorsMatchEventAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 17, 5000, 30000} {
		events := genEvents(rng, n)
		s := recordSlab(events)

		evCounts, runCounts := NewCounts(40), NewCounts(40)
		evLog, runLog := &Log{Max: n / 2}, &Log{Max: n / 2}
		evSlab, runSlab := NewSlab(0), NewSlab(0)

		for _, ev := range events {
			evCounts.RecordBranch(ev.Site, ev.Taken)
			evLog.RecordBranch(ev.Site, ev.Taken)
			evSlab.RecordBranch(ev.Site, ev.Taken)
		}
		s.ReplayInto(runCounts)
		s.ReplayInto(runLog)
		s.ReplayInto(runSlab)

		for i := range evCounts.Taken {
			if evCounts.Taken[i] != runCounts.Taken[i] || evCounts.NotTaken[i] != runCounts.NotTaken[i] {
				t.Fatalf("n=%d site %d: counts diverge", n, i)
			}
		}
		if evLog.Seen != runLog.Seen || len(evLog.Events) != len(runLog.Events) {
			t.Fatalf("n=%d: log shape diverges: seen %d/%d len %d/%d",
				n, evLog.Seen, runLog.Seen, len(evLog.Events), len(runLog.Events))
		}
		for i := range evLog.Events {
			if evLog.Events[i] != runLog.Events[i] {
				t.Fatalf("n=%d: log event %d diverges", n, i)
			}
		}
		evSlab.Seal()
		runSlab.Seal()
		for name, got := range map[string]*Slab{"event": evSlab, "run": runSlab} {
			if got.Len() != s.Len() || !bytes.Equal(got.buf, s.buf) {
				t.Fatalf("n=%d: %s-at-a-time slab encoding diverges (%d vs %d bytes)",
					n, name, len(got.buf), len(s.buf))
			}
		}
	}
}

// TestReplayIntoFanOutMatchesSolo: collectors sharing one fused
// ReplayInto pass must each end bit-identical to a twin replayed alone.
func TestReplayIntoFanOutMatchesSolo(t *testing.T) {
	events := mixedEvents(4000, 23)
	s := NewSlab(0)
	recordAll(s, events)

	fused := []Collector{NewCounts(8), &Log{}, NewTargetCounts(0), &MaxSite{}}
	solo := []Collector{NewCounts(8), &Log{}, NewTargetCounts(0), &MaxSite{}}
	s.ReplayInto(fused...)
	for _, c := range solo {
		s.ReplayInto(c)
	}
	if !reflect.DeepEqual(fused, solo) {
		t.Fatal("fused fan-out diverges from solo replays")
	}
}

// TestMaxSite covers the site-scan collector on its branch, run and switch
// entry points.
func TestMaxSite(t *testing.T) {
	var m MaxSite
	if m.N != 0 {
		t.Fatal("fresh MaxSite not zero")
	}
	m.RecordBranch(3, true)
	m.RecordRun(7, false, 100)
	m.RecordSwitch(5, 2)
	if m.N != 8 {
		t.Fatalf("MaxSite = %d, want 8", m.N)
	}
	m.RecordSwitchRun(11, 0, 3)
	if m.N != 12 {
		t.Fatalf("MaxSite after a switch run = %d, want 12", m.N)
	}
}

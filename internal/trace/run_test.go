package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// TestRunCollectorsMatchEventAtATime drives every trace-package collector
// both event-at-a-time (RecordBranch) and run-at-a-time (RecordRun from
// ReplayRuns) and requires identical final state — including the Slab as a
// collector, whose two paths must produce byte-identical encodings and
// checkpoints, equal to the recorded slab's own.
func TestRunCollectorsMatchEventAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 1, 17, 5000, 3 * ckEvery} {
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
		s.ReplayRuns(runCounts.RecordRun)
		s.ReplayRuns(runLog.RecordRun)
		s.ReplayRuns(runSlab.RecordRun)

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
			if got.Len() != s.Len() || !bytes.Equal(got.buf, s.buf) || !reflect.DeepEqual(got.cks, s.cks) {
				t.Fatalf("n=%d: %s-at-a-time slab encoding diverges (%d vs %d bytes, %d vs %d checkpoints)",
					n, name, len(got.buf), len(s.buf), len(got.cks), len(s.cks))
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
	shard := m.NewShard()
	shard.RecordRun(11, true, 1)
	m.Merge(shard)
	if m.N != 12 {
		t.Fatalf("merged MaxSite = %d, want 12", m.N)
	}
}

// TestReplayPartitionedMatchesSinglePass: for stream sizes straddling the
// partition threshold and worker counts beyond the checkpoint supply,
// partitioned replay of sharded collectors must be bit-identical to the
// fused single pass.
func TestReplayPartitionedMatchesSinglePass(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{100, minPartition - 1, minPartition, 3 * minPartition, 200_000} {
		events := genEvents(rng, n)
		s := recordSlab(events)
		want := NewCounts(40)
		s.ReplayInto(want)
		for _, workers := range []int{1, 2, 3, 7, 64} {
			got := NewCounts(40)
			max := &MaxSite{}
			s.ReplayPartitioned(workers, got, max)
			for i := range want.Taken {
				if want.Taken[i] != got.Taken[i] || want.NotTaken[i] != got.NotTaken[i] {
					t.Fatalf("n=%d workers=%d site %d: %d/%d want %d/%d", n, workers, i,
						got.Taken[i], got.NotTaken[i], want.Taken[i], want.NotTaken[i])
				}
			}
			wantMax := &MaxSite{}
			s.ReplayInto(wantMax)
			if max.N != wantMax.N {
				t.Fatalf("n=%d workers=%d: MaxSite %d want %d", n, workers, max.N, wantMax.N)
			}
		}
	}
}

// TestReplayPartitionedFallsBackForUnsharded: a collector without shard
// support must still get the full, ordered stream.
func TestReplayPartitionedFallsBackForUnsharded(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	events := genEvents(rng, 2*minPartition)
	s := recordSlab(events)
	l := &Log{}
	s.ReplayPartitioned(8, l)
	if len(l.Events) != len(events) {
		t.Fatalf("fallback saw %d events, want %d", len(l.Events), len(events))
	}
	for i, ev := range l.Events {
		if ev != events[i] {
			t.Fatalf("fallback event %d out of order", i)
		}
	}
}

// TestSlabSegmentsCoverStream checks the checkpoint machinery directly:
// segments must tile the buffer exactly, each must start at a plain event
// code, and their decoded event counts must sum to the slab's length.
func TestSlabSegmentsCoverStream(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	events := genEvents(rng, 150_000)
	s := recordSlab(events)
	for _, workers := range []int{2, 3, 5, 16} {
		segs := s.segments(workers)
		if len(segs) > workers {
			t.Fatalf("workers=%d: %d segments", workers, len(segs))
		}
		var total uint64
		off := 0
		for si, seg := range segs {
			if len(seg) == 0 {
				t.Fatalf("workers=%d: empty segment %d", workers, si)
			}
			if &seg[0] != &s.buf[off] {
				t.Fatalf("workers=%d: segment %d does not start where segment %d ended", workers, si, si-1)
			}
			if seg[0] < 0x80 && seg[0] == 1 {
				t.Fatalf("workers=%d: segment %d starts with a run marker", workers, si)
			}
			replayBytes(seg, func(int32, bool) { total++ }, func(_ int32, _ bool, n uint64) { total += n },
				func(int32, int32) { total++ }, func(_, _ int32, n uint64) { total += n })
			off += len(seg)
		}
		if off != len(s.buf) {
			t.Fatalf("workers=%d: segments cover %d of %d bytes", workers, off, len(s.buf))
		}
		if total != s.Len() {
			t.Fatalf("workers=%d: segments decode %d events, want %d", workers, total, s.Len())
		}
	}
}

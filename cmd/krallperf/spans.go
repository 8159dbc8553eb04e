package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Parent is the index of the enclosing
// span, -1 for a root.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
}

// tracer keeps spans in memory for one goroutine. A nil tracer records
// nothing, so the untraced pass runs the same code without spans.
type tracer struct {
	base  time.Time
	spans []Span
	open  []int32
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if k := len(t.open); k > 0 {
		parent = t.open[k-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, Span{Name: name, Start: t.now(), Parent: parent})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	k := len(t.open) - 1
	t.spans[t.open[k]].End = t.now()
	t.open = t.open[:k]
}

// selfTimes returns each span name's total self time: a span's duration
// minus the part its child spans cover.
func selfTimes(spans []Span) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// writeSpans writes the recorded spans as one JSON document.
func writeSpans(path, workload string, wall time.Duration, spans []Span) error {
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		WallNs   int64  `json:"wall_ns"`
		Spans    []Span `json:"spans"`
	}{workload, int64(wall), spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// layerShares turns self times into shares of the traced wall time, one per
// named layer span in names; time under no named span (root spans and the
// loop around them) is reported as "other".
func layerShares(self map[string]time.Duration, wall time.Duration, names []string) map[string]float64 {
	out := map[string]float64{}
	var named time.Duration
	for _, n := range names {
		out[n] = self[n].Seconds() / wall.Seconds()
		named += self[n]
	}
	out["other"] = (wall - named).Seconds() / wall.Seconds()
	return out
}

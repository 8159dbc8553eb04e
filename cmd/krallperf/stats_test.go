package main

import (
	"testing"
	"time"
)

// samples returns 1..n in a scrambled order.
func samples(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64((i*7919)%n + 1)
	}
	return out
}

func TestPercentilesRefuseThinTail(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p50, p99 float64
		refused  bool
	}{
		{n: 999, p50: 500, refused: true},
		{n: 1000, p50: 500.5, p99: 990},
		{n: 5000, p50: 2500.5, p99: 4950},
	} {
		p50, p99, err := percentiles(samples(tc.n))
		if (err != nil) != tc.refused {
			t.Errorf("%d samples: err = %v, want refused = %v", tc.n, err, tc.refused)
		}
		if p50 != tc.p50 {
			t.Errorf("%d samples: p50 = %v, want %v", tc.n, p50, tc.p50)
		}
		if !tc.refused && p99 != tc.p99 {
			t.Errorf("%d samples: p99 = %v, want %v", tc.n, p99, tc.p99)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{12, 10, 11, 9, 13})
	if s.min != 9 || s.median != 11 || s.max != 13 {
		t.Fatalf("summarize = %+v", s)
	}
	if got := s.rangeShare(); got != 4.0/11 {
		t.Fatalf("rangeShare = %v, want %v", got, 4.0/11)
	}
}

func TestWindowed(t *testing.T) {
	ms := time.Millisecond
	lr := loopResult{elapsed: 2 * time.Second, samples: []sample{
		{0, 1 * ms, 100 * ms}, {0, 2 * ms, 500 * ms}, {0, 3 * ms, 900 * ms},
		{1, 10 * ms, 1100 * ms}, {1, 20 * ms, 1500 * ms}, {0, 4 * ms, 1999 * ms},
	}}
	var w windowed
	w.add(lr)
	if len(w.rates) != 2 || w.rates[0] != 3 || w.rates[1] != 3 {
		t.Errorf("rates = %v, want [3 3]", w.rates)
	}
	if len(w.p50s) != 2 || w.p50s[0] != 2 || w.p50s[1] != 10 {
		t.Errorf("p50s = %v, want [2 10]", w.p50s)
	}
	// Class 0's window medians are 2 and 4, class 1's is 15.
	if got := w.slowClass(); got != 15 {
		t.Errorf("slowClass = %v, want 15", got)
	}
}

func TestSelfTimes(t *testing.T) {
	// request [0,100) holds decode [10,30) and encode [40,90), which holds
	// store [50,60).
	spans := []Span{
		{Name: "request", Start: 0, End: 100, Parent: -1},
		{Name: "service.decode", Start: 10, End: 30, Parent: 0},
		{Name: "service.encode", Start: 40, End: 90, Parent: 0},
		{Name: "runner.store", Start: 50, End: 60, Parent: 2},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"request": 30, "service.decode": 20, "service.encode": 40, "runner.store": 10}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self(%s) = %v, want %v", name, self[name], d)
		}
	}
	shares := layerShares(self, 100, []string{"service.decode", "service.encode", "runner.store"})
	if shares["other"] != 0.3 || shares["service.encode"] != 0.4 {
		t.Errorf("shares = %v", shares)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.begin("request")
	tr.begin("service.decode")
	tr.end()
	tr.end()
	if len(tr.spans) != 2 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var off *tracer
	off.begin("request") // a nil tracer records nothing
	off.end()
}

package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail resting on one or two samples is noise, not a measurement.
const minBeyond = 10

// percentiles returns the median and the 99th percentile (nearest rank) of
// samples. It refuses the 99th percentile when fewer than minBeyond
// samples lie beyond it, which takes at least 1,000 samples.
func percentiles(samples []float64) (p50, p99 float64, err error) {
	n := len(samples)
	if n == 0 {
		return 0, 0, fmt.Errorf("no samples")
	}
	s := sorted(samples)
	rank := (99*n + 99) / 100 // ⌈0.99·n⌉ in integers
	if beyond := n - rank; beyond < minBeyond {
		return median(s), 0, fmt.Errorf("p99 of %d samples has %d beyond it, want at least %d", n, beyond, minBeyond)
	}
	return median(s), s[rank-1], nil
}

// median returns the middle value (the mean of the two middle values for
// an even count), or 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := sorted(values)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread summarises repeated measurements of one metric.
type spread struct {
	min, median, max float64
}

func summarize(values []float64) spread {
	s := sorted(values)
	return spread{min: s[0], median: median(s), max: s[len(s)-1]}
}

// rangeShare is the min-to-max range as a share of the median, the noise
// figure the regression bounds in BENCHMARK.json are calibrated from.
func (s spread) rangeShare() float64 {
	if s.median == 0 {
		return 0
	}
	return (s.max - s.min) / math.Abs(s.median)
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// windowLen is the length of the windows a timed phase is cut into. The
// host a benchmark shares slows down in episodes of a few seconds; a median
// over one-second windows sets such an episode aside, where a figure taken
// over the whole phase would absorb it.
const windowLen = time.Second

// windowed collects the per-window figures of one or more timed phases.
type windowed struct {
	rates   []float64         // operations completed per second, per window
	p50s    []float64         // median latency in ms, per window
	classes map[int][]float64 // per class: its median latency in ms, per window it appears in
}

// add cuts a phase into equal windows of about windowLen, at least one,
// and adds each window's figures. A sample belongs to the window it
// completed in.
func (w *windowed) add(lr loopResult) {
	n := max(1, int(lr.elapsed/windowLen))
	width := lr.elapsed / time.Duration(n)
	lats := make([][]float64, n)
	byClass := make([]map[int][]float64, n)
	for _, s := range lr.samples {
		k := min(int(s.at/width), n-1)
		ms := float64(s.lat) / float64(time.Millisecond)
		lats[k] = append(lats[k], ms)
		if byClass[k] == nil {
			byClass[k] = map[int][]float64{}
		}
		byClass[k][s.class] = append(byClass[k][s.class], ms)
	}
	if w.classes == nil {
		w.classes = map[int][]float64{}
	}
	for k := range lats {
		w.rates = append(w.rates, float64(len(lats[k]))/width.Seconds())
		if len(lats[k]) == 0 {
			continue
		}
		w.p50s = append(w.p50s, median(lats[k]))
		for c, v := range byClass[k] {
			w.classes[c] = append(w.classes[c], median(v))
		}
	}
}

// slowClass is the median latency of the slowest class: per class, the
// median of its window medians; the largest of those.
func (w *windowed) slowClass() float64 {
	var slowest float64
	for _, v := range w.classes {
		slowest = max(slowest, median(v))
	}
	return slowest
}

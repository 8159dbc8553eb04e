package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// layerCounts holds the work counts a traced run makes at its layer
// boundaries, from which the per-layer rates and ratios are computed. A
// layer a workload does not use keeps its zero values.
type layerCounts struct {
	branches    uint64  // conditional branches executed under interp.* spans
	events      uint64  // trace events folded under profile.fold
	sourceBytes int     // BL source bytes under lang.* spans
	traceBytes  int     // base64 trace bytes decoded under trace.read
	choices     int     // strategy choices statemachine.Select returned
	sizeFactor  float64 // summed code growth of replicate.apply calls
	applies     int
	sites       int // branch sites analysis.static examined
	decided     int // of which it proved one-way
	ops         int // mirrored operations in the traced pass

	cacheHitRatio float64
	liveRunsPerOp float64
	serverShare   float64
	rejected      float64
	allocKBPerOp  float64
}

// report adds every per-layer metric to r and writes the spans.
func (l *layerCounts) report(r *result, o options, workload string, spans []Span, wall, overhead time.Duration) error {
	self := selfTimes(spans)
	names := layerSpans()
	shares := layerShares(self, wall, names)
	for _, n := range append(names, "other") {
		r.add(n+"_share", shares[n], "fraction")
	}
	secs := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return d.Seconds()
	}
	r.add("traced_wall_s", wall.Seconds(), "s")
	r.add("tracing_overhead_s", overhead.Seconds(), "s")
	r.add("interp.branches_per_s", ratio(float64(l.branches), secs("interp.record", "interp.measure")), "1/s")
	r.add("profile.events_per_s", ratio(float64(l.events), secs("profile.fold")), "1/s")
	r.add("lang.kb_per_s", ratio(float64(l.sourceBytes)/1024, secs("lang.parse", "lang.check", "lang.lower")), "KB/s")
	r.add("trace.mb_per_s", ratio(float64(l.traceBytes)/(1<<20), secs("trace.read")), "MB/s")
	r.add("statemachine.choices_per_op", ratio(float64(l.choices), float64(l.ops)), "count")
	r.add("replicate.size_factor", ratio(l.sizeFactor, float64(l.applies)), "ratio")
	r.add("analysis.decided_ratio", ratio(float64(l.decided), float64(l.sites)), "fraction")
	r.add("runner.cache_hit_ratio", l.cacheHitRatio, "fraction")
	r.add("runner.live_runs_per_op", l.liveRunsPerOp, "count")
	r.add("service.server_share", l.serverShare, "fraction")
	r.add("service.rejected", l.rejected, "count")
	r.add("process.alloc_kb_per_op", l.allocKBPerOp, "KB")
	if o.spans != "" {
		return writeSpans(o.spans, workload, wall, spans)
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is this process's peak resident set (VmHWM), falling back to
// the memory the Go runtime obtained where /proc is unavailable.
func peakRSSMB() float64 {
	if buf, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if f := strings.Fields(rest); len(f) > 0 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

package main

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/runner"
)

// sweepSections are the Suite sections krallbench -all prints, in its
// order; "setup" is bench.NewSuite, which compiles, records and profiles
// the eight programs.
var sweepSections = []string{"setup", "table1", "table2", "table3", "table4", "table5", "staticpred",
	"figures", "measured", "crossdataset", "layout", "scope", "joint", "indirect", "headline"}

// measuredStates is krallbench's default machine size for the measured
// replication section.
const measuredStates = 5

// round is one full sweep: a fresh Suite and every section.
type round struct {
	wall     time.Duration
	sections []time.Duration // indexed like sweepSections
	out      []byte          // the rendered stdout of krallbench -all
	stats    runner.Stats
}

// sweepRound runs one round, with a span around each section when tr is
// not nil.
func sweepRound(cfg bench.ExpConfig, tr *tracer) (*round, error) {
	rd := &round{sections: make([]time.Duration, len(sweepSections))}
	var (
		s    *bench.Suite
		figs []bench.Figure
		out  bytes.Buffer
	)
	table := func(f func() (*bench.Table, error)) func() (string, error) {
		return func() (string, error) {
			t, err := f()
			if err != nil {
				return "", err
			}
			return t.Render(), nil
		}
	}
	plain := func(f func() *bench.Table) func() (string, error) {
		return table(func() (*bench.Table, error) { return f(), nil })
	}
	steps := []func() (string, error){
		func() (string, error) {
			var err error
			s, err = bench.NewSuite(cfg)
			return "", err
		},
		plain(func() *bench.Table { return s.Table1() }),
		plain(func() *bench.Table { return s.Table2() }),
		plain(func() *bench.Table { return s.Table3() }),
		plain(func() *bench.Table { return s.Table4() }),
		plain(func() *bench.Table { return s.Table5() }),
		plain(func() *bench.Table { return s.StaticPrediction() }),
		func() (string, error) {
			figs = s.Figures()
			parts := []string{bench.FigureTable(figs).Render()}
			for _, f := range figs {
				parts = append(parts, bench.RenderFigure(f))
			}
			return strings.Join(parts, "\n"), nil
		},
		table(func() (*bench.Table, error) { return s.MeasuredReplication(measuredStates) }),
		table(func() (*bench.Table, error) { return s.CrossDataset() }),
		table(func() (*bench.Table, error) { return s.LayoutTable() }),
		table(func() (*bench.Table, error) { return s.ScopeTable() }),
		table(func() (*bench.Table, error) { return s.JointTable() }),
		table(func() (*bench.Table, error) { return s.IndirectTable() }),
		func() (string, error) { return bench.RenderHeadlines(bench.Headlines(figs)), nil },
	}
	start := time.Now()
	tr.begin("round")
	defer tr.end()
	for i, step := range steps {
		t0 := time.Now()
		tr.begin("bench." + sweepSections[i])
		text, err := step()
		tr.end()
		rd.sections[i] = time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", sweepSections[i], err)
		}
		if i > 0 {
			fmt.Fprintln(&out, text)
		}
	}
	rd.wall = time.Since(start)
	rd.out = out.Bytes()
	rd.stats = s.Engine().Stats()
	return rd, nil
}

// runSweep is the researcher's job: the whole krallbench -all sweep, round
// after round, each round on a fresh Suite. Every round is preceded by one
// more bench.NewSuite, timed for setup_s along with the round's own.
func runSweep(o options) (*result, error) {
	cfg := sweepConfig(o.seed, o.tiny)
	if o.trace {
		return traceSweep(o, cfg)
	}
	r := &result{}
	b := bounds{seconds: o.seconds, minOps: 3}
	if o.tiny {
		b = bounds{minOps: 1, maxOps: 1}
	}
	var (
		setups   []float64
		walls    []float64
		sections = make([][]float64, len(sweepSections))
		digests  []string
	)
	start := time.Now()
	for i := 0; b.more(i, time.Since(start)); i++ {
		t0 := time.Now()
		if _, err := bench.NewSuite(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		r.Attempted++
		rd, err := sweepRound(cfg, nil)
		if err != nil {
			r.fail(err)
			continue
		}
		walls = append(walls, rd.wall.Seconds())
		for j, d := range rd.sections {
			sections[j] = append(sections[j], d.Seconds())
		}
		setups = append(setups, rd.sections[0].Seconds())
		digests = append(digests, digest(rd.out))
	}
	if len(walls) == 0 {
		return nil, fmt.Errorf("no sweep round completed: %s", r.Errors[0])
	}
	if err := checkSweepDigests(o.seed, o.tiny, digests, sweepDigestSeed1); err != nil {
		r.fail(err)
	}
	var slowest float64
	for _, sec := range sections {
		slowest = max(slowest, median(sec))
	}
	wall := median(walls)
	r.add("setup_s", median(setups), "s")
	r.add("ops_per_s", 1/wall, "1/s")
	r.add("p50_ms", 1000*wall, "ms")
	r.add("slow_class_ms", 1000*slowest, "ms")
	r.add("peak_rss_mb", peakRSSMB(), "MB")
	r.add("fail_ratio", float64(r.Failed)/float64(r.Attempted), "fraction")
	r.add("rounds", float64(len(walls)), "count")
	for j, name := range sweepSections {
		r.add("bench."+name+"_ms", 1000*median(sections[j]), "ms")
	}
	r.Digest = digests[0]
	return r, nil
}

// traceSweep is the sweep's traced run: one untraced round, then one round
// with a span around every section.
func traceSweep(o options, cfg bench.ExpConfig) (*result, error) {
	r := &result{Attempted: 2}
	a0 := totalAlloc()
	plain, err := sweepRound(cfg, nil)
	if err != nil {
		return nil, err
	}
	alloc := totalAlloc() - a0
	tr := newTracer()
	traced, err := sweepRound(cfg, tr)
	if err != nil {
		return nil, err
	}
	if err := checkSweepDigests(o.seed, o.tiny, []string{digest(plain.out), digest(traced.out)}, sweepDigestSeed1); err != nil {
		r.fail(err)
	}
	st := plain.stats
	l := &layerCounts{
		cacheHitRatio: ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses)),
		liveRunsPerOp: float64(st.LiveRuns),
		allocKBPerOp:  float64(alloc) / 1024,
	}
	if err := l.report(r, o, "sweep", tr.spans, traced.wall, traced.wall-plain.wall); err != nil {
		return nil, err
	}
	return r, nil
}

// Command krallbench regenerates every table and figure of the paper's
// evaluation section over the eight substitute workloads.
//
// Usage:
//
//	krallbench [flags]
//
//	-budget N     branch-event budget per workload (default 2000000)
//	-quick        use the scaled-down quick configuration
//	-table N      print only table N (1-5); repeatable via comma list
//	-staticpred   print the static (profile-free) prediction table
//	-figures      print the misprediction-vs-size curves
//	-measured     print the interpreter-verified replication results
//	-crossdata    print the dataset-sensitivity experiment
//	-indirect     print the indirect-dispatch experiment: switch clustering
//	              vs the annotated baseline on the dispatch workloads
//	-headline     print the §5 headline summary
//	-all          print everything (default when no selector is given)
//	-states N     machine size for the measured-replication experiment
//	-parallel N   experiment-engine workers (default GOMAXPROCS; 1 = the
//	              sequential path — output is byte-identical either way)
//	-forcelive    disable the trace-replay engine (every experiment
//	              interprets live; identical results, slower)
//	-execbench    time budgeted live runs on the interpreter and print the
//	              throughput (also written to -benchjson as "exec")
//	-tracebench   time trace replay per decode mode (event-at-a-time,
//	              run-aware, profile bundle) and print the
//	              comparison (also written to -benchjson as "trace")
//	-benchjson F  write machine-readable results (timings, engine
//	              counters) as JSON to F — see EXPERIMENTS.md for the schema
//	-cpuprofile F write a CPU profile to F
//	-memprofile F write a heap profile to F
//	-trace F      write a runtime execution trace to F
//
// A second mode gates CI on throughput instead of running the sweep:
//
//	krallbench -compare OLD NEW [-tolerance 0.15]
//	krallbench -compare OLD -degrade 0.8 -out FILE
//
// -compare reads two -benchjson documents and exits non-zero when
// branches/sec or the service requests/sec dropped more than the
// tolerance below OLD; -degrade writes a synthetically regressed copy so
// CI can prove the gate fires.
//
// Tables and figures go to stdout; progress, timing, and the engine's
// job/cache counters go to stderr, so stdout is reproducible byte-for-byte
// (the golden tests in main_test.go rely on this).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	rtrace "runtime/trace"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/results"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "krallbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	// -compare is a distinct mode: it reads two result documents and
	// gates on throughput instead of running the sweep.
	if len(args) > 0 && (args[0] == "-compare" || args[0] == "--compare") {
		return runCompare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("krallbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		budget     = fs.Uint64("budget", 2_000_000, "branch-event budget per workload")
		quick      = fs.Bool("quick", false, "use the quick configuration")
		tables     = fs.String("table", "", "comma-separated table numbers (1-5)")
		staticpred = fs.Bool("staticpred", false, "print the static (profile-free) prediction table")
		figures    = fs.Bool("figures", false, "print figure curves")
		measured   = fs.Bool("measured", false, "print measured replication results")
		crossdata  = fs.Bool("crossdata", false, "print dataset sensitivity")
		layoutExp  = fs.Bool("layout", false, "print the code-positioning experiment")
		scopeExp   = fs.Bool("scope", false, "print the scheduler-scope experiment")
		jointExp   = fs.Bool("joint", false, "print the joint-machine (§6) experiment")
		indirExp   = fs.Bool("indirect", false, "print the indirect-dispatch (switch clustering) experiment")
		headline   = fs.Bool("headline", false, "print headline summary")
		all        = fs.Bool("all", false, "print everything")
		states     = fs.Int("states", 5, "machine size for measured replication")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "experiment-engine workers (1 = sequential)")
		quiet      = fs.Bool("quiet", false, "suppress progress and engine-stats chatter on stderr")
		forceLive  = fs.Bool("forcelive", false, "disable the trace-replay engine (interpret every experiment live)")
		execbench  = fs.Bool("execbench", false, "time live runs on the interpreter and print the throughput")
		tracebench = fs.Bool("tracebench", false, "time trace replay per decode mode and print the comparison")
		benchjson  = fs.String("benchjson", "", "write machine-readable results (JSON) to `file`")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to `file`")
		memprofile = fs.String("memprofile", "", "write a heap profile to `file`")
		traceFlag  = fs.String("trace", "", "write a runtime execution trace to `file`")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *states < 2 {
		return fmt.Errorf("-states %d out of range: machines need at least 2 states", *states)
	}
	if *quiet {
		// Tables still go to stdout; only the progress/stats chatter is
		// silenced, so library-style callers get clean streams.
		stderr = io.Discard
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFlag != "" {
		f, err := os.Create(*traceFlag)
		if err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return fmt.Errorf("-trace: %w", err)
		}
		defer rtrace.Stop()
	}

	cfg := bench.DefaultConfig()
	if *quick {
		cfg = bench.QuickConfig()
	}
	if *budget != 0 {
		cfg.Budget = *budget
	}
	cfg.Parallel = *parallel
	cfg.ForceLive = *forceLive
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sel := map[string]bool{}
	for _, t := range strings.Split(*tables, ",") {
		if t == "" {
			continue
		}
		if n, err := strconv.Atoi(t); err != nil || n < 1 || n > 5 {
			return fmt.Errorf("-table %q: tables are numbered 1-5", t)
		}
		sel["table"+t] = true
	}
	if *staticpred {
		sel["staticpred"] = true
	}
	nothing := len(sel) == 0 && !*figures && !*measured && !*crossdata && !*headline && !*layoutExp && !*scopeExp && !*jointExp && !*indirExp && !*execbench && !*tracebench
	if *all || nothing {
		for i := 1; i <= 5; i++ {
			sel[fmt.Sprintf("table%d", i)] = true
		}
		sel["staticpred"] = true
		*figures, *measured, *crossdata, *headline, *layoutExp, *scopeExp, *jointExp, *indirExp = true, true, true, true, true, true, true, true
	}

	var timings []results.Section
	report := func(id string, d time.Duration) {
		timings = append(timings, results.Section{
			ID:              id,
			TraceSufficient: bench.TraceSufficient(id),
			Seconds:         d.Seconds(),
		})
	}

	start := time.Now()
	fmt.Fprintf(stderr, "krallbench: profiling %d workloads, budget %d branches each, %d workers...\n",
		len(bench.Workloads()), cfg.Budget, workers)
	suite, err := bench.NewSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "profiled in %v\n\n", time.Since(start).Round(time.Millisecond))

	section := func(id string, f func() (*bench.Table, error)) error {
		if !sel[id] {
			return nil
		}
		secStart := time.Now()
		t, err := f()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		report(id, time.Since(secStart))
		return nil
	}
	sections := []struct {
		id string
		f  func() (*bench.Table, error)
	}{
		{"table1", func() (*bench.Table, error) { return suite.Table1(), nil }},
		{"table2", func() (*bench.Table, error) { return suite.Table2(), nil }},
		{"table3", func() (*bench.Table, error) { return suite.Table3(), nil }},
		{"table4", func() (*bench.Table, error) { return suite.Table4(), nil }},
		{"table5", func() (*bench.Table, error) { return suite.Table5(), nil }},
		{"staticpred", func() (*bench.Table, error) { return suite.StaticPrediction(), nil }},
	}
	for _, sec := range sections {
		if err := section(sec.id, sec.f); err != nil {
			return err
		}
	}

	// Figures and the headline share one curve computation; its cost is
	// attributed to whichever section consumes it first.
	var figs []bench.Figure
	var figCost time.Duration
	if *figures || *headline {
		figStart := time.Now()
		figs = suite.Figures()
		figCost = time.Since(figStart)
	}
	if *figures {
		secStart := time.Now()
		fmt.Fprintln(stdout, bench.FigureTable(figs).Render())
		for _, f := range figs {
			fmt.Fprintln(stdout, bench.RenderFigure(f))
		}
		report("figures", figCost+time.Since(secStart))
		figCost = 0
	}
	if *measured {
		secStart := time.Now()
		t, err := suite.MeasuredReplication(*states)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		report("measured", time.Since(secStart))
	}
	if *crossdata {
		secStart := time.Now()
		t, err := suite.CrossDataset()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		report("crossdataset", time.Since(secStart))
	}
	if *layoutExp {
		secStart := time.Now()
		t, err := suite.LayoutTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		report("layout", time.Since(secStart))
	}
	if *scopeExp {
		secStart := time.Now()
		t, err := suite.ScopeTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		report("scope", time.Since(secStart))
	}
	if *jointExp {
		secStart := time.Now()
		t, err := suite.JointTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		report("joint", time.Since(secStart))
	}
	if *indirExp {
		secStart := time.Now()
		t, err := suite.IndirectTable()
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, t.Render())
		report("indirect", time.Since(secStart))
	}
	if *headline {
		secStart := time.Now()
		fmt.Fprintln(stdout, bench.RenderHeadlines(bench.Headlines(figs)))
		report("headline", figCost+time.Since(secStart))
	}
	var execMs []bench.ExecMeasurement
	if *execbench {
		secStart := time.Now()
		execMs, err = bench.MeasureExec(nil, cfg.Budget, 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.ExecTable(execMs).Render())
		report("execbench", time.Since(secStart))
	}
	var traceMs []bench.TraceMeasurement
	if *tracebench {
		secStart := time.Now()
		traceMs, err = bench.MeasureTrace(nil, cfg.Budget, 3)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.TraceTable(traceMs).Render())
		report("tracebench", time.Since(secStart))
	}
	stats := suite.Engine().Stats()
	total := time.Since(start)
	fmt.Fprintf(stderr, "engine: %v\n", stats)
	fmt.Fprintf(stderr, "total time: %v\n", total.Round(time.Millisecond))

	if *benchjson != "" {
		res := &results.Document{
			Schema:       results.Schema,
			Budget:       cfg.Budget,
			Quick:        *quick,
			Workers:      workers,
			TotalSeconds: total.Seconds(),
			Engine: results.Engine{
				Jobs:           stats.Jobs,
				JobSeconds:     stats.JobTime.Seconds(),
				CacheHits:      stats.CacheHits,
				CacheMisses:    stats.CacheMisses,
				TraceRecords:   stats.TraceRecords,
				RecordedEvents: stats.RecordedEvents,
				Replays:        stats.Replays,
				ReplayedEvents: stats.ReplayedEvents,
				LiveRuns:       stats.LiveRuns,
			},
			Experiments: timings,
		}
		if secs := total.Seconds(); secs > 0 {
			res.BranchesPerSecond = float64(stats.RecordedEvents+stats.ReplayedEvents) / secs
		}
		if len(execMs) > 0 {
			ex := &results.Exec{Budget: execMs[0].Budget, Rounds: execMs[0].Rounds}
			var iTime, total float64
			for _, m := range execMs {
				ex.Workloads = append(ex.Workloads, results.ExecWorkload{
					Name:                    m.Workload,
					InterpBranchesPerSecond: m.InterpBranchesPerSec,
				})
				iTime += float64(m.Budget) / m.InterpBranchesPerSec
				total += float64(m.Budget)
			}
			ex.InterpBranchesPerSecond = total / iTime
			res.Exec = ex
		}
		if len(traceMs) > 0 {
			tr := &results.Trace{
				Budget: traceMs[0].Budget,
				Rounds: traceMs[0].Rounds,
			}
			var sTime, rTime, fTime, total float64
			for _, m := range traceMs {
				tr.Workloads = append(tr.Workloads, results.TraceWorkload{
					Name:                      m.Workload,
					Events:                    m.Events,
					EncodedBytes:              m.EncodedBytes,
					SinglePassEventsPerSecond: m.SinglePassEventsPerSec,
					RunAwareEventsPerSecond:   m.RunAwareEventsPerSec,
					ProfileEventsPerSecond:    m.ProfileEventsPerSec,
					Speedup:                   m.Speedup,
				})
				sTime += float64(m.Events) / m.SinglePassEventsPerSec
				rTime += float64(m.Events) / m.RunAwareEventsPerSec
				fTime += float64(m.Events) / m.ProfileEventsPerSec
				total += float64(m.Events)
			}
			tr.SinglePassEventsPerSecond = total / sTime
			tr.RunAwareEventsPerSecond = total / rTime
			tr.ProfileEventsPerSecond = total / fTime
			tr.Speedup = tr.RunAwareEventsPerSecond / tr.SinglePassEventsPerSecond
			res.Trace = tr
		}
		if err := results.Write(*benchjson, res); err != nil {
			return fmt.Errorf("-benchjson: %w", err)
		}
		fmt.Fprintf(stderr, "wrote %s\n", *benchjson)
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

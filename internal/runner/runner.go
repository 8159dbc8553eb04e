// Package runner is the parallel experiment engine behind internal/bench
// and cmd/krallbench. It decomposes an experiment sweep into independent
// jobs (one per workload × strategy × parameter point), executes them
// across a bounded worker pool, and merges the results deterministically:
// results are placed by job index, never by completion order, so the
// output of a parallel run is byte-identical to a sequential one. One store
// type, Sharded, holds every keyed artifact with single-flight population:
// the engine's unbounded instance lets repeated cells of a sweep reuse
// profiled pattern tables, alternate-dataset runs, and strategy selections
// instead of recomputing them, and kralld's bounded instance is its memory
// tier. Errors are never cached, so a failed fill is retried on the next
// request.
package runner

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// Engine executes jobs across a fixed number of workers and owns the
// artifact cache and the job/cache counters. The zero-cost way to get the
// exact sequential behaviour is New(1): every job then runs inline in the
// caller's goroutine.
type Engine struct {
	workers int
	cache   *Sharded
	jobs    atomic.Int64
	jobNS   atomic.Int64

	// Trace-replay engine counters (see internal/bench): recordings are
	// interpreter runs that produced a branch trace, replays are trace
	// playbacks into collectors, walks are transformed clones measured by
	// walking a recorded trace (replicate.Walk), and live runs are
	// interpreter executions that could be served by neither.
	records        atomic.Int64
	recordedEvents atomic.Int64
	replays        atomic.Int64
	replayedEvents atomic.Int64
	walks          atomic.Int64
	liveRuns       atomic.Int64
}

// CountRecord notes one record-mode interpreter run that captured events
// branch events into a trace.
func (e *Engine) CountRecord(events int64) {
	e.records.Add(1)
	e.recordedEvents.Add(events)
}

// CountReplay notes one trace replay that fed events branch events into
// collectors without re-interpreting the workload.
func (e *Engine) CountReplay(events int64) {
	e.replays.Add(1)
	e.replayedEvents.Add(events)
}

// CountWalk notes one transformed program measured by walking a recorded
// trace instead of interpreting it.
func (e *Engine) CountWalk() { e.walks.Add(1) }

// CountLiveRun notes one interpreter execution that could not be served
// from a recorded trace, by replay or by walk.
func (e *Engine) CountLiveRun() { e.liveRuns.Add(1) }

// New creates an engine with the given worker count; workers <= 0 selects
// runtime.GOMAXPROCS(0).
func New(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{workers: workers, cache: NewSharded(math.MaxInt, workers)}
}

// Workers is the configured worker count.
func (e *Engine) Workers() int { return e.workers }

// Cache is the engine's unbounded artifact store. Suites sharing an engine
// share profiles, decoded traces, and selection sweeps through it.
func (e *Engine) Cache() *Sharded { return e.cache }

// Stats is a snapshot of an engine's counters.
type Stats struct {
	// Workers is the configured pool width.
	Workers int
	// Jobs is the number of jobs executed; JobTime is the wall time summed
	// over jobs (with N workers it can exceed elapsed time N-fold).
	Jobs    int64
	JobTime time.Duration
	// CacheHits and CacheMisses count artifact-cache lookups: a hit means a
	// profile, trace, or selection sweep was reused instead of recomputed.
	CacheHits, CacheMisses int64
	// TraceRecords is the number of record-mode interpreter runs and
	// RecordedEvents the branch events they captured; Replays/ReplayedEvents
	// count trace playbacks serving experiments without re-interpretation;
	// Walks counts transformed programs measured along a recorded trace;
	// LiveRuns counts interpreter executions that bypassed the trace path.
	TraceRecords   int64
	RecordedEvents int64
	Replays        int64
	ReplayedEvents int64
	Walks          int64
	LiveRuns       int64
}

func (s Stats) String() string {
	return fmt.Sprintf("%d workers, %d jobs (%v job time), cache %d hits / %d misses, "+
		"%d recordings (%d events), %d replays (%d events), %d walks, %d live runs",
		s.Workers, s.Jobs, s.JobTime.Round(time.Millisecond), s.CacheHits, s.CacheMisses,
		s.TraceRecords, s.RecordedEvents, s.Replays, s.ReplayedEvents, s.Walks, s.LiveRuns)
}

// Stats returns the engine's current counters.
func (e *Engine) Stats() Stats {
	hits, misses := e.cache.Counters()
	return Stats{
		Workers:        e.workers,
		Jobs:           e.jobs.Load(),
		JobTime:        time.Duration(e.jobNS.Load()),
		CacheHits:      hits,
		CacheMisses:    misses,
		TraceRecords:   e.records.Load(),
		RecordedEvents: e.recordedEvents.Load(),
		Replays:        e.replays.Load(),
		ReplayedEvents: e.replayedEvents.Load(),
		Walks:          e.walks.Load(),
		LiveRuns:       e.liveRuns.Load(),
	}
}

// Map applies fn to every item and returns the results in item order.
// Jobs are distributed over the engine's workers; with a nil engine or a
// single worker every job runs inline in the caller's goroutine, which is
// exactly the sequential path. Merging is order-independent — out[i] only
// ever holds item i's result — and on failure the error of the
// lowest-index failing job is returned, so error behaviour is
// deterministic too. A panicking job is converted into an error instead of
// crashing unrelated workers.
func Map[T, R any](e *Engine, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	if len(items) == 0 {
		return out, nil
	}
	workers := 1
	if e != nil {
		workers = e.workers
	}
	if workers > len(items) {
		workers = len(items)
	}
	errs := make([]error, len(items))
	run := func(i int) {
		start := time.Now()
		out[i], errs[i] = protect(func() (R, error) { return fn(i, items[i]) })
		if e != nil {
			e.jobs.Add(1)
			e.jobNS.Add(time.Since(start).Nanoseconds())
		}
	}
	if workers <= 1 {
		for i := range items {
			run(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) {
						return
					}
					run(i)
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// protect converts a panic in fn into an error so one failing job cannot
// take down the whole pool with a cross-goroutine crash.
func protect[R any](fn func() (R, error)) (out R, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("runner: job panicked: %v\n%s", r, debug.Stack())
		}
	}()
	return fn()
}

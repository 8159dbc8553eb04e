// Command krallperf is the repository's benchmark: four seeded workloads —
// the krallbench sweep, cold replication requests, hot replayed requests,
// and uploads — each run in its own child process and checked for correct
// outputs. See README.md for the workloads, the metrics, and why.
//
// Usage:
//
//	krallperf [-workload W|all] [-seed N] [-seconds S] [-runs R] [-trace 0|1] [-spans FILE]
//
// BENCHMARK.json runs it through run.sh with --workload, --seed, --seconds
// (its run_seconds) and --trace.
//
// It prints one "workload metric value unit" line per metric and, as the
// last line, one JSON object with the keys correct, attempted, failed and
// metrics. With -trace 0 the metrics are the end-to-end metrics; with
// -trace 1 a separate traced run reports the per-layer metrics and writes
// its spans to -spans. With -runs R > 1 each line also gives the min and
// max over the R runs, and the value is their median. The exit code is 1
// when any output was wrong.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// childEnv marks a process started to run one workload once.
const childEnv = "KRALLPERF_CHILD"

// workloads lists the benchmark's workloads in run order.
var workloads = []struct {
	name string
	run  func(o options) (*result, error)
}{
	{"sweep", runSweep},
	{"replicate-cold", serviceRun(coldWorkload)},
	{"serve-hot", serviceRun(hotWorkload)},
	{"upload", serviceRun(uploadWorkload)},
}

// endToEnd and perLayer are the metric names BENCHMARK.json declares;
// every workload reports every one of them.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_ms", "slow_class_ms", "peak_rss_mb"}

var perLayer = func() []string {
	var out []string
	for _, n := range append(layerSpans(), "other") {
		out = append(out, n+"_share")
	}
	return append(out, "traced_wall_s", "tracing_overhead_s",
		"interp.branches_per_s", "profile.events_per_s", "lang.kb_per_s", "trace.mb_per_s",
		"statemachine.choices_per_op", "replicate.size_factor", "analysis.decided_ratio",
		"runner.cache_hit_ratio", "runner.live_runs_per_op", "service.server_share", "service.rejected",
		"process.alloc_kb_per_op")
}()

// layerSpans names every layer span a traced run may record: the sweep's
// sections, then the layers a request passes through.
func layerSpans() []string {
	out := make([]string, 0, len(sweepSections)+len(requestSpans))
	for _, s := range sweepSections {
		out = append(out, "bench."+s)
	}
	return append(out, requestSpans...)
}

// options configure one run of one workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	spans   string
	tiny    bool
}

// measurement is one metric value of one run.
type measurement struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload, as a child reports it to its parent.
type result struct {
	Workload  string        `json:"workload"`
	Attempted int           `json:"attempted"`
	Failed    int           `json:"failed"`
	Errors    []string      `json:"errors,omitempty"`
	Metrics   []measurement `json:"metrics"`
	// Digest is the SHA-256 of the sweep's rendered output.
	Digest string `json:"digest,omitempty"`
}

func (r *result) add(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, measurement{name, v, unit})
}

// fail records a wrong output or failed operation; the first few errors
// are kept for the report.
func (r *result) fail(err error) {
	r.Failed++
	r.note(err)
}

// note records an error that is not itself a failed operation (one
// already counted elsewhere, or a check of the run as a whole).
func (r *result) note(err error) {
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, err.Error())
	}
}

func (r *result) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func parseFlags(args []string, stderr io.Writer) (opts options, workload string, runs int, err error) {
	fs := flag.NewFlagSet("krallperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	w := fs.String("workload", "all", "workload to run: sweep, replicate-cold, serve-hot, upload, or all")
	seed := fs.Int64("seed", defaultSeed, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "length of one run's timed phase in seconds")
	r := fs.Int("runs", 1, "runs per workload; lines give the median, min and max")
	tr := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics")
	spans := fs.String("spans", "", "with -trace 1, write the spans to `file` (one per workload: FILE-<workload>.json)")
	tiny := fs.Bool("tiny", false, "run at smoke-test scale")
	if err := fs.Parse(args); err != nil {
		return options{}, "", 0, err
	}
	if fs.NArg() > 0 {
		return options{}, "", 0, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *tr != 0 && *tr != 1 {
		return options{}, "", 0, fmt.Errorf("-trace %d: want 0 or 1", *tr)
	}
	if *r < 1 || *seconds <= 0 {
		return options{}, "", 0, fmt.Errorf("-runs and -seconds must be positive")
	}
	if *w != "all" && findWorkload(*w) < 0 {
		return options{}, "", 0, fmt.Errorf("unknown workload %q", *w)
	}
	opts = options{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *tr == 1, spans: *spans, tiny: *tiny}
	return opts, *w, *r, nil
}

func findWorkload(name string) int {
	for i, w := range workloads {
		if w.name == name {
			return i
		}
	}
	return -1
}

// childMain runs one workload once in this process and prints its result
// as one JSON line.
func childMain(args []string, stdout io.Writer) int {
	o, name, _, err := parseFlags(args, os.Stderr)
	if err != nil || name == "all" {
		fmt.Fprintln(os.Stderr, "krallperf: child needs one workload:", err)
		return 2
	}
	if o.spans != "" {
		o.spans = spansFile(o.spans, name)
	}
	res, err := workloads[findWorkload(name)].run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "krallperf: %s: %v\n", name, err)
		return 1
	}
	res.Workload = name
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		return 1
	}
	return 0
}

func spansFile(path, workload string) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "-" + workload + ext
}

// childTimeout bounds one child run, so a hung workload cannot outlive the
// three-minute limit a run has.
const childTimeout = 170 * time.Second

// run is the parent: it starts one child per workload run, then reports.
func run(args []string, stdout, stderr io.Writer) int {
	o, name, runs, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "krallperf:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "krallperf:", err)
		return 1
	}
	var names []string
	for _, w := range workloads {
		if name == "all" || name == w.name {
			names = append(names, w.name)
		}
	}
	var all [][]*result
	for _, w := range names {
		var rs []*result
		for i := 0; i < runs; i++ {
			res, err := runChild(exe, w, o, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "krallperf: %s: %v\n", w, err)
				return 1
			}
			for _, e := range res.Errors {
				fmt.Fprintf(stderr, "krallperf: %s: %s\n", w, e)
			}
			rs = append(rs, res)
		}
		all = append(all, rs)
	}
	correct, err := report(stdout, all, o.trace, len(names) > 1)
	if err != nil {
		fmt.Fprintln(stderr, "krallperf:", err)
		return 1
	}
	if !correct {
		return 1
	}
	return 0
}

// runChild re-executes this binary to run one workload once, so memory
// and GC state never carry over from one workload to the next.
func runChild(exe, workload string, o options, stderr io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	trace := "0"
	if o.trace {
		trace = "1"
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds.Seconds(), 'g', -1, 64),
		"-trace", trace,
		"-spans", o.spans,
		"-tiny=" + strconv.FormatBool(o.tiny),
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child run: %w", err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("decoding the child's result: %w", err)
	}
	if res.Attempted < 1 {
		return nil, errors.New("child attempted no operations")
	}
	return &res, nil
}

// summary is the last line of the output.
type summary struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]jsonValue `json:"metrics"`
}

type jsonValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one line per metric of every workload, then the JSON
// summary of the metrics BENCHMARK.json declares (prefixed with the
// workload name when several workloads ran). It returns whether every
// output was correct.
func report(w io.Writer, all [][]*result, traced, prefix bool) (bool, error) {
	want := endToEnd
	if traced {
		want = perLayer
	}
	sum := summary{Correct: true, Metrics: map[string]jsonValue{}}
	for _, rs := range all {
		wl := rs[0].Workload
		values := map[string][]float64{}
		units := map[string]string{}
		var order []string
		for _, r := range rs {
			sum.Correct = sum.Correct && r.correct()
			sum.Attempted += r.Attempted
			sum.Failed += r.Failed
			for _, m := range r.Metrics {
				if _, seen := units[m.Name]; !seen {
					order = append(order, m.Name)
					units[m.Name] = m.Unit
				}
				values[m.Name] = append(values[m.Name], m.Value)
			}
		}
		if d := rs[0].Digest; d != "" {
			fmt.Fprintf(w, "%s stdout_sha256 %s sha256\n", wl, d)
		}
		for _, name := range order {
			s := summarize(values[name])
			if len(rs) == 1 {
				fmt.Fprintf(w, "%s %s %s %s\n", wl, name, num(s.median), units[name])
			} else {
				fmt.Fprintf(w, "%s %s %s %s min=%s max=%s range=%.1f%%\n", wl, name, num(s.median), units[name],
					num(s.min), num(s.max), 100*s.rangeShare())
			}
		}
		for _, name := range want {
			if _, ok := units[name]; !ok {
				return false, fmt.Errorf("%s reported no %s", wl, name)
			}
			key := name
			if prefix {
				key = wl + "." + name
			}
			sum.Metrics[key] = jsonValue{summarize(values[name]).median, units[name]}
		}
	}
	buf, err := json.Marshal(sum)
	if err != nil {
		return false, err
	}
	_, err = fmt.Fprintf(w, "%s\n", buf)
	return sum.Correct, err
}

func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

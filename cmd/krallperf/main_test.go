package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for krallperf when the smoke test
// re-executes it as a workload's child process.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, e2e, layers map[string]string) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		layers[m.Name] = m.Unit
	}
	return workloads, e2e, layers
}

// TestSmoke runs every workload at tiny scale, untraced and traced, and
// checks the report: a well-formed line per metric, every metric
// BENCHMARK.json declares with its unit, no failed operation, and spans.
func TestSmoke(t *testing.T) {
	names, e2e, layers := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, krallperf has %d", len(names), len(workloads))
	}
	for i, w := range workloads {
		if names[i] != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, krallperf %q", i, names[i], w.name)
		}
	}
	for _, mode := range []struct {
		name string
		args []string
		want map[string]string
		list []string
	}{
		{"untraced", nil, e2e, endToEnd},
		{"traced", []string{"-trace", "1"}, layers, perLayer},
	} {
		t.Run(mode.name, func(t *testing.T) {
			t.Parallel()
			if len(mode.want) != len(mode.list) {
				t.Errorf("BENCHMARK.json declares %d metrics, krallperf reports %d", len(mode.want), len(mode.list))
			}
			spans := filepath.Join(t.TempDir(), "spans.json")
			args := append([]string{"-tiny", "-workload", "all", "-spans", spans}, mode.args...)
			var out, errb bytes.Buffer
			if code := run(args, &out, &errb); code != 0 {
				t.Fatalf("exit %d\n%s", code, errb.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			units := map[string]string{}
			for _, line := range lines[:len(lines)-1] {
				f := strings.Fields(line)
				if len(f) != 4 || !metricName.MatchString(f[1]) {
					t.Errorf("malformed line %q", line)
					continue
				}
				units[f[0]+" "+f[1]] = f[3]
				if f[1] == "fail_ratio" && f[2] != "0" {
					t.Errorf("%s fail_ratio %s", f[0], f[2])
				}
			}
			for _, w := range names {
				for name, unit := range mode.want {
					if got, ok := units[w+" "+name]; !ok || got != unit {
						t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w, name, got, unit)
					}
				}
			}
			var sum summary
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatal(err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < len(names) {
				t.Errorf("summary: correct %v, %d of %d failed", sum.Correct, sum.Failed, sum.Attempted)
			}
			if len(sum.Metrics) != len(names)*len(mode.want) {
				t.Errorf("summary holds %d metrics, want %d", len(sum.Metrics), len(names)*len(mode.want))
			}
			if mode.args != nil {
				for _, w := range names {
					checkSpansFile(t, spansFile(spans, w))
				}
			}
		})
	}
}

func checkSpansFile(t *testing.T, path string) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Error(err)
		return
	}
	var doc struct{ Spans []Span }
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Error(err)
		return
	}
	if len(doc.Spans) == 0 {
		t.Errorf("%s has no spans", path)
	}
	for i, s := range doc.Spans {
		if s.End < s.Start || s.Parent >= int32(i) || s.Parent < -1 {
			t.Errorf("%s: malformed span %d %+v", path, i, s)
		}
	}
}

func TestReportRuns(t *testing.T) {
	var rs []*result
	for _, v := range []float64{3, 1, 2} {
		r := &result{Workload: "sweep", Attempted: 1}
		for _, name := range endToEnd {
			r.add(name, v, "s")
		}
		rs = append(rs, r)
	}
	var out bytes.Buffer
	if correct, err := report(&out, [][]*result{rs}, false, false); err != nil || !correct {
		t.Fatalf("report: correct %v, %v", correct, err)
	}
	if !strings.Contains(out.String(), "sweep setup_s 2 s min=1 max=3 range=100.0%\n") {
		t.Errorf("report:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"setup_s":{"value":2,"unit":"s"}`) {
		t.Errorf("summary does not hold the median:\n%s", out.String())
	}
}

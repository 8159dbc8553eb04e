package main

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/results"
)

// runCompare is the bench-regression gate: krallbench -compare OLD NEW
// reads two krallbench-results/v1 documents and fails when a throughput
// metric dropped by more than -tolerance relative to OLD. Only metrics
// present in both documents are gated, so a baseline without a service
// section does not fail against a run that has one (and vice versa).
//
//	krallbench -compare OLD NEW [-tolerance 0.15]
//	krallbench -compare OLD -degrade 0.8 -out FILE
//
// The -degrade form writes a copy of OLD with every gated metric scaled
// by the factor — a synthetic regression. CI uses it to prove the gate
// actually fires: compare against the degraded copy must exit non-zero.
func runCompare(args []string, stdout, stderr io.Writer) error {
	tolerance := 0.15
	degrade := 0.0
	out := ""
	var paths []string
	for i := 0; i < len(args); i++ {
		arg := args[i]
		takeValue := func() (string, error) {
			if i+1 >= len(args) {
				return "", fmt.Errorf("%s needs a value", arg)
			}
			i++
			return args[i], nil
		}
		var err error
		switch arg {
		case "-tolerance", "--tolerance":
			var v string
			if v, err = takeValue(); err == nil {
				tolerance, err = strconv.ParseFloat(v, 64)
			}
		case "-degrade", "--degrade":
			var v string
			if v, err = takeValue(); err == nil {
				degrade, err = strconv.ParseFloat(v, 64)
			}
		case "-out", "--out":
			out, err = takeValue()
		default:
			if len(arg) > 1 && arg[0] == '-' {
				return fmt.Errorf("-compare: unknown flag %s (want -tolerance, -degrade, -out)", arg)
			}
			paths = append(paths, arg)
		}
		if err != nil {
			return fmt.Errorf("-compare: %w", err)
		}
	}

	if degrade != 0 {
		if len(paths) != 1 || out == "" {
			return fmt.Errorf("-compare -degrade needs exactly one input document and -out")
		}
		if degrade <= 0 || degrade > 1 {
			return fmt.Errorf("-compare: -degrade %v out of range (0, 1]", degrade)
		}
		doc, err := results.Read(paths[0])
		if err != nil {
			return err
		}
		for _, m := range gatedMetrics(doc, doc) {
			*m.newv *= degrade
		}
		if err := results.Write(out, doc); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s with throughput scaled by %.2f\n", out, degrade)
		return nil
	}

	if len(paths) != 2 {
		return fmt.Errorf("-compare needs exactly two documents (old new), got %d", len(paths))
	}
	if tolerance < 0 || tolerance >= 1 {
		return fmt.Errorf("-compare: -tolerance %v out of range [0, 1)", tolerance)
	}
	oldDoc, err := results.Read(paths[0])
	if err != nil {
		return err
	}
	newDoc, err := results.Read(paths[1])
	if err != nil {
		return err
	}

	metrics := gatedMetrics(oldDoc, newDoc)
	if len(metrics) == 0 {
		return fmt.Errorf("-compare: no throughput metric present in both %s and %s", paths[0], paths[1])
	}
	var failed []string
	fmt.Fprintf(stdout, "%-30s %14s %14s %8s\n", "metric", "old", "new", "delta")
	for _, m := range metrics {
		oldV, newV := *m.oldv, *m.newv
		delta := newV/oldV - 1
		mark := ""
		if newV < oldV*(1-tolerance) {
			mark = "  REGRESSION"
			failed = append(failed, fmt.Sprintf("%s dropped %.1f%% (%.1f -> %.1f, tolerance %.0f%%)",
				m.name, -delta*100, oldV, newV, tolerance*100))
		}
		fmt.Fprintf(stdout, "%-30s %14.1f %14.1f %+7.1f%%%s\n", m.name, oldV, newV, delta*100, mark)
	}
	if len(failed) > 0 {
		for _, f := range failed {
			fmt.Fprintln(stderr, "krallbench -compare:", f)
		}
		return fmt.Errorf("%d of %d throughput metrics regressed past the %.0f%% tolerance",
			len(failed), len(metrics), tolerance*100)
	}
	fmt.Fprintf(stdout, "all %d throughput metrics within %.0f%% of the baseline\n", len(metrics), tolerance*100)
	return nil
}

// gatedMetric pairs one throughput number across the two documents.
type gatedMetric struct {
	name string
	oldv *float64
	newv *float64
}

// gatedMetrics lists the throughput numbers the gate watches, restricted
// to those present (non-zero) in both documents.
func gatedMetrics(oldDoc, newDoc *results.Document) []gatedMetric {
	var out []gatedMetric
	add := func(name string, oldv, newv *float64) {
		if *oldv > 0 && *newv > 0 {
			out = append(out, gatedMetric{name, oldv, newv})
		}
	}
	add("branches_per_second", &oldDoc.BranchesPerSecond, &newDoc.BranchesPerSecond)
	if oldDoc.Service != nil && newDoc.Service != nil {
		add("service.single.requests_per_second",
			&oldDoc.Service.Single.RequestsPerSecond, &newDoc.Service.Single.RequestsPerSecond)
		add("service.batch.requests_per_second",
			&oldDoc.Service.Batch.RequestsPerSecond, &newDoc.Service.Batch.RequestsPerSecond)
		add("service.batch.branches_per_second",
			&oldDoc.Service.Batch.BranchesPerSecond, &newDoc.Service.Batch.BranchesPerSecond)
		if oldDoc.Service.Cluster != nil && newDoc.Service.Cluster != nil {
			add("service.cluster.requests_per_second",
				&oldDoc.Service.Cluster.MultiNode.RequestsPerSecond,
				&newDoc.Service.Cluster.MultiNode.RequestsPerSecond)
			add("service.cluster.scaling",
				&oldDoc.Service.Cluster.Scaling, &newDoc.Service.Cluster.Scaling)
		}
	}
	if oldDoc.Exec != nil && newDoc.Exec != nil {
		add("exec.interp_branches_per_second",
			&oldDoc.Exec.InterpBranchesPerSecond, &newDoc.Exec.InterpBranchesPerSecond)
	}
	if oldDoc.Trace != nil && newDoc.Trace != nil {
		add("trace.single_pass_events_per_second",
			&oldDoc.Trace.SinglePassEventsPerSecond, &newDoc.Trace.SinglePassEventsPerSecond)
		add("trace.run_aware_events_per_second",
			&oldDoc.Trace.RunAwareEventsPerSecond, &newDoc.Trace.RunAwareEventsPerSecond)
		add("trace.profile_events_per_second",
			&oldDoc.Trace.ProfileEventsPerSecond, &newDoc.Trace.ProfileEventsPerSecond)
	}
	return out
}

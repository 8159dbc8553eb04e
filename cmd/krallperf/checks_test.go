package main

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/lang"
	"repro/internal/service"
)

// Every output check must pass a correct answer and fail a tampered one.

func TestCheckSweepDigests(t *testing.T) {
	d := digest([]byte("table 1\n"))
	if err := checkSweepDigests(defaultSeed, false, []string{d, d}, d+"\n"); err != nil {
		t.Errorf("matching digests: %v", err)
	}
	if err := checkSweepDigests(defaultSeed, false, []string{d, d}, strings.Repeat("0", 64)); err == nil {
		t.Error("a tampered committed digest passed")
	}
	if err := checkSweepDigests(7, false, []string{d, digest([]byte("table 1 \n"))}, ""); err == nil {
		t.Error("rounds with different output passed")
	}
	if err := checkSweepDigests(7, false, []string{d, d}, strings.Repeat("0", 64)); err != nil {
		t.Errorf("another seed is checked against the committed digest: %v", err)
	}
}

func TestCommittedSweepDigest(t *testing.T) {
	if d := strings.TrimSpace(sweepDigestSeed1); len(d) != 64 || strings.Trim(d, "0123456789abcdef") != "" {
		t.Fatalf("testdata/sweep-seed1.sha256 holds %q, not a SHA-256", d)
	}
}

func TestCheckReplicate(t *testing.T) {
	good := service.ReplicateResponse{Program: "compress", SemanticsVerified: true, Verified: true}
	good.Baseline.Predicted = 1000
	if err := checkReplicate(mustJSON(good), "compress"); err != nil {
		t.Errorf("correct answer: %v", err)
	}
	for name, tamper := range map[string]func(*service.ReplicateResponse){
		"semantics":    func(r *service.ReplicateResponse) { r.SemanticsVerified = false },
		"verifier":     func(r *service.ReplicateResponse) { r.Verified = false },
		"no branches":  func(r *service.ReplicateResponse) { r.Baseline.Predicted = 0 },
		"wrong answer": func(r *service.ReplicateResponse) { r.Program = "cc" },
	} {
		r := good
		tamper(&r)
		if err := checkReplicate(mustJSON(r), "compress"); err == nil {
			t.Errorf("%s: tampered answer passed", name)
		}
	}
	if err := checkReplicate([]byte("{"), "compress"); err == nil {
		t.Error("a truncated answer passed")
	}
}

func TestCheckHot(t *testing.T) {
	warm := []byte(`{"schema":"kralld/v1","kind":"score"}` + "\n")
	if err := checkHot(append([]byte(nil), warm...), warm); err != nil {
		t.Errorf("identical answer: %v", err)
	}
	tampered := []byte(strings.Replace(string(warm), "score", "scorf", 1))
	if err := checkHot(tampered, warm); err == nil {
		t.Error("a tampered answer passed")
	}
}

func TestCheckScore(t *testing.T) {
	traces, err := recordTraces(3, 1, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	good := service.ScoreResponse{Kind: "score", Events: tr.events, Score: rateBlock(tr.mispredicted, tr.events)}
	if err := checkScore(mustJSON(good), tr); err != nil {
		t.Errorf("correct answer: %v", err)
	}
	bad := good
	bad.Score.Mispredicted++
	if err := checkScore(mustJSON(bad), tr); err == nil {
		t.Error("a tampered misprediction count passed")
	}
}

// TestTwoBitFoldMatchesPredictor shows the benchmark's own fold, taken from
// the interpreter's branch hook, agrees with the program's 2-bit predictor
// replayed over the uploaded trace bytes.
func TestTwoBitFoldMatchesPredictor(t *testing.T) {
	traces, err := recordTraces(5, 2, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	m := &uploadMirror{traces: traces}
	for _, tr := range traces {
		var req service.Request
		if err := json.Unmarshal(tr.body, &req); err != nil {
			t.Fatal(err)
		}
		if _, err := m.score(nil, req.TraceB64, tr, &layerCounts{}); err != nil {
			t.Error(err)
		}
		if tr.mispredicted == 0 || tr.mispredicted >= tr.events {
			t.Errorf("fold counted %d of %d mispredicted", tr.mispredicted, tr.events)
		}
	}
}

func TestCheckAnalyze(t *testing.T) {
	_, src := sourceRequest(9, streamSource, 0)
	prog, err := lang.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	n := prog.NumberBranches(true)
	if err := checkAnalyze(mustJSON(service.AnalyzeResponse{NumSites: n}), src); err != nil {
		t.Errorf("correct answer: %v", err)
	}
	if err := checkAnalyze(mustJSON(service.AnalyzeResponse{NumSites: n + 1}), src); err == nil {
		t.Error("a tampered site count passed")
	}
	if err := checkAnalyze([]byte(`{"kind":"analyze"}`), src); err == nil {
		t.Error("an answer without num_sites passed")
	}
}

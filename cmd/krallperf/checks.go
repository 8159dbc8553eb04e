package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/lang"
	"repro/internal/service"
)

// The output checks. Each returns nil for a correct response and an error
// naming what is wrong otherwise; a wrong output counts as a failed
// operation.

//go:embed testdata/sweep-seed1.sha256
var sweepDigestSeed1 string

// defaultSeed is the seed whose sweep output digest is committed.
const defaultSeed = 1

// checkSweepDigests checks the rendered output of every sweep round: at the
// default seed it must match the committed digest, and at any seed every
// round must agree with the first.
func checkSweepDigests(seed int64, tiny bool, digests []string, want string) error {
	for i, d := range digests {
		if d != digests[0] {
			return fmt.Errorf("sweep round %d output digest %s differs from round 0 (%s)", i, d, digests[0])
		}
	}
	if seed == defaultSeed && !tiny && digests[0] != strings.TrimSpace(want) {
		return fmt.Errorf("sweep output digest %s, want committed %s", digests[0], strings.TrimSpace(want))
	}
	return nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkReplicate checks a /v1/replicate answer: the transformed program
// computed what the original did, the equivalence verifier proved the
// transform, and the baseline run predicted branches.
func checkReplicate(body []byte, program string) error {
	var r service.ReplicateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding replicate response: %w", err)
	}
	switch {
	case r.Program != program:
		return fmt.Errorf("replicate answered for program %q, want %q", r.Program, program)
	case !r.SemanticsVerified:
		return fmt.Errorf("replicate %s: semantics_verified is false", program)
	case !r.Verified:
		return fmt.Errorf("replicate %s: verified is false", program)
	case r.Baseline.Predicted == 0:
		return fmt.Errorf("replicate %s: baseline predicted no branches", program)
	}
	return nil
}

// checkHot checks a serve-hot answer against that call's warmup answer.
func checkHot(body, warm []byte) error {
	if !bytes.Equal(body, warm) {
		return fmt.Errorf("response differs from the warmup response (%d vs %d bytes)", len(body), len(warm))
	}
	return nil
}

// checkScore checks a /v1/score answer on an uploaded trace against the
// benchmark's own 2-bit fold over the recorded events.
func checkScore(body []byte, tr uploadTrace) error {
	var r service.ScoreResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decoding score response: %w", err)
	}
	if r.Score.Predicted != tr.events || r.Score.Mispredicted != tr.mispredicted {
		return fmt.Errorf("score %d/%d mispredicted/predicted, want %d/%d",
			r.Score.Mispredicted, r.Score.Predicted, tr.mispredicted, tr.events)
	}
	return nil
}

// checkAnalyze checks an /v1/analyze answer's site count against the
// benchmark's own compile of the source.
func checkAnalyze(body []byte, src string) error {
	n, err := analyzeSites(body)
	if err != nil {
		return err
	}
	return checkAnalyzeSites(n, src)
}

// checkAnalyzeSites is checkAnalyze on an already decoded site count.
func checkAnalyzeSites(numSites int, src string) error {
	prog, err := lang.Compile(src)
	if err != nil {
		return fmt.Errorf("compiling the analyzed source: %w", err)
	}
	if want := prog.NumberBranches(true); numSites != want {
		return fmt.Errorf("analyze num_sites %d, want %d", numSites, want)
	}
	return nil
}

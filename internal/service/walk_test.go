package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/ir"
)

// engineCounts scrapes the walk and live-run counters from /metrics.
func engineCounts(t *testing.T, url string) (walks, live int) {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		fmt.Sscanf(line, "kralld_engine_walks_total %d", &walks)
		fmt.Sscanf(line, "kralld_engine_live_runs_total %d", &live)
	}
	return walks, live
}

// TestReplicateWalksVerifiedClones pins where /v1/replicate walks: a
// clone the verifier proved is walked along the recorded trace, and its
// answer must equal the unchecked request's, whose clone runs live, in
// every byte but the verifier's verdict. Every catalog workload is asked,
// sequentially and jointly, and the engine counters must show one walk
// per checked request and one live run per unchecked one.
func TestReplicateWalksVerifiedClones(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	asked := 0
	for _, w := range bench.Workloads() {
		for _, joint := range []bool{false, true} {
			req := Request{Workload: w.Name, Budget: 20_000, Seed: 7, Joint: joint}
			answer := func(check bool) ReplicateResponse {
				req.Check = check
				body, _ := json.Marshal(req)
				code, out := post(t, ts, "replicate", string(body))
				if code != http.StatusOK {
					t.Fatalf("%s joint=%v check=%v: status %d: %s", w.Name, joint, check, code, out)
				}
				var r ReplicateResponse
				if err := json.Unmarshal(out, &r); err != nil {
					t.Fatal(err)
				}
				return r
			}
			live, walked := answer(false), answer(true)
			if !walked.Verified || live.Verified {
				t.Fatalf("%s joint=%v: verified %v (checked) / %v (unchecked)", w.Name, joint, walked.Verified, live.Verified)
			}
			walked.Verified = false
			if walked != live {
				t.Errorf("%s joint=%v: walked answer differs from the live one\nwalked %+v\n  live %+v", w.Name, joint, walked, live)
			}
			asked++
		}
	}
	if walks, live := engineCounts(t, ts.URL); walks != asked || live != asked {
		t.Fatalf("engine counted %d walks and %d live runs, want %d of each", walks, live, asked)
	}
}

// TestReplicateStepBoundFallsBack pins the fallback: a recording cut by
// the step backstop below the branch budget cannot vouch for where the
// clone would stop, so even a verified clone runs live (the answer itself
// is pinned by the replicate_steps_check golden).
func TestReplicateStepBoundFallsBack(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, out := post(t, ts, "replicate", stepBoundBody)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}
	var r ReplicateResponse
	if err := json.Unmarshal(out, &r); err != nil {
		t.Fatal(err)
	}
	if !r.Verified || r.Baseline.Predicted >= 2000 {
		t.Fatalf("want a verified clone over a step-truncated run, got %s", out)
	}
	if walks, live := engineCounts(t, ts.URL); walks != 0 || live != 1 {
		t.Fatalf("engine counted %d walks and %d live runs, want 0 and 1", walks, live)
	}
}

// TestReplicateRefutesSwappedClone miswires one loop copy of a verified
// clone by swapping its successors, after the verifier has passed it. The
// walk must leave the recorded path, and the request must fail with a 500
// counted as a failed verification — never answer semantics_verified.
func TestReplicateRefutesSwappedClone(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	swapped := ""
	s.mutateClone = func(p *ir.Program) {
		for _, f := range p.Funcs {
			for _, b := range f.Blocks {
				if b.Term.Op != ir.TermBr || !strings.Contains(b.Name, ".q") {
					continue
				}
				if then, els := firstOrig(b.Term.Then), firstOrig(b.Term.Else); then >= 0 && els >= 0 && then != els {
					b.Term.Then, b.Term.Else = b.Term.Else, b.Term.Then
					swapped = f.Name + "/" + b.String()
					return
				}
			}
		}
	}
	code, out := post(t, ts, "replicate", `{"workload":"compress","budget":20000,"states":4,"check":true}`)
	if swapped == "" {
		t.Fatal("no loop copy to miswire")
	}
	if code != http.StatusInternalServerError || strings.Contains(string(out), `"semantics_verified":true`) {
		t.Fatalf("swapped %s: status %d: %s", swapped, code, out)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, want := range []string{"krallcheck_verified_total 0", "krallcheck_failed_total 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// firstOrig follows b's jumps to the first conditional branch or switch
// and returns its origin, or -1 when a call or return comes first.
func firstOrig(b *ir.Block) int32 {
	for hops := 0; hops < 64; hops++ {
		for i := range b.Instrs {
			if b.Instrs[i].Op == ir.OpCall {
				return -1
			}
		}
		switch b.Term.Op {
		case ir.TermJmp:
			b = b.Term.Then
		case ir.TermBr, ir.TermSwitch:
			return b.Term.Orig
		default:
			return -1
		}
	}
	return -1
}

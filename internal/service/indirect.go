package service

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/runner"
)

// The indirect replication family of /v1/replicate: case clustering of hot
// switch dispatches, selected with family: "indirect", set up by core's
// cluster stage (Profiled.Cluster). Responses are scored under core's
// semi-static cost model, the one the krallbench indirect experiment uses:
// every executed dispatch costs one misprediction-equivalent on top of the
// conditional-branch mispredictions (Measurement.Effective).

// IndirectRun is one measured run under the semi-static cost model.
type IndirectRun struct {
	// Conditional is the ordinary two-way branch prediction block.
	Conditional RateBlock `json:"conditional"`
	// Dispatches counts executed switch transfers (the residual's only, in
	// the clustered program — taken chain tests never reach it).
	Dispatches uint64 `json:"dispatches"`
	// EffectiveMissPct is (conditional misses + dispatches) over
	// (conditional events + dispatches), as a percentage.
	EffectiveMissPct float64 `json:"effective_miss_pct"`
	Checksum         uint64  `json:"checksum"`
}

// IndirectReplicateResponse answers /v1/replicate for family "indirect".
type IndirectReplicateResponse struct {
	SchemaV  string `json:"schema"`
	Kind     string `json:"kind"`
	Family   string `json:"family"`
	Program  string `json:"program"`
	Switches int    `json:"switches"`
	// ClusteredSites is how many dispatch sites the profile justified
	// rewriting; Tests the equality tests inserted across them.
	ClusteredSites   int         `json:"clustered_sites"`
	Tests            int         `json:"tests"`
	Baseline         IndirectRun `json:"baseline"`
	Clustered        IndirectRun `json:"clustered"`
	MissReductionPct float64     `json:"miss_reduction_pct"`
	Code             struct {
		InstrsBefore int     `json:"instrs_before"`
		InstrsAfter  int     `json:"instrs_after"`
		SizeFactor   float64 `json:"size_factor"`
	} `json:"code"`
	SemanticsVerified bool `json:"semantics_verified"`
	// Verified reports the structural re-derivation's verdict
	// (indirect.Verify); it is false unless the request asked for
	// verification (check).
	Verified bool   `json:"verified"`
	IR       string `json:"ir,omitempty"`
}

// indirectRun is m under the semi-static cost model.
func indirectRun(m core.Measurement) IndirectRun {
	return IndirectRun{
		Conditional:      rateBlock(m.Mispredicted, m.Predicted),
		Dispatches:       m.Dispatches,
		EffectiveMissPct: round4(rateBlock(m.Effective()).RatePct),
		Checksum:         m.Checksum,
	}
}

func (s *Server) handleReplicateIndirect(ctx context.Context, req *Request) (any, error) {
	c, err := s.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	budget, err := s.budgetFor(req)
	if err != nil {
		return nil, err
	}
	prof, art, err := s.profileFor(ctx, c, req, budget)
	if err != nil {
		return nil, err
	}
	p := &core.Profiled{Prog: c.prog, Feats: c.feats, Cell: cellFor(c, budget, req), Rec: &art.Recording, Prof: prof}
	cl, err := p.Cluster(req.Check)
	if err != nil {
		return nil, err
	}
	verified := false
	if req.Check {
		if len(cl.Diags) > 0 {
			// The transform produced a program the verifier rejects — a
			// daemon-side fault, never the client's.
			s.verifyFail.Add(1)
			return nil, &httpError{http.StatusInternalServerError,
				"indirect verification failed: " + cl.Diags[0].Msg}
		}
		s.verifyOK.Add(1)
		verified = true
	}

	runs, err := s.indirectRuns(ctx, c, cl, req, budget)
	if err != nil {
		return nil, err
	}
	base, clus := runs[0], runs[1]

	st := cl.Stats
	resp := &IndirectReplicateResponse{
		SchemaV:           Schema,
		Kind:              "replicate",
		Family:            "indirect",
		Program:           c.name,
		Switches:          st.Switches,
		ClusteredSites:    st.Clustered,
		Tests:             st.Tests,
		Baseline:          indirectRun(base),
		Clustered:         indirectRun(clus),
		MissReductionPct:  round4(clus.MissReduction(base)),
		SemanticsVerified: base.Checksum == clus.Checksum,
		Verified:          verified,
	}
	resp.Code.InstrsBefore = st.InstrsBefore
	resp.Code.InstrsAfter = st.InstrsAfter
	resp.Code.SizeFactor = round4(st.SizeFactor())
	if req.IncludeIR {
		resp.IR = cl.Clustered.String()
	}
	return resp, nil
}

// indirectRuns measures the clustering's baseline and clustered programs,
// memoised in the store. Both are functions of the program and of the
// (budget, seed, scale) cell, which fixes the profile the clustering came
// from and the measuring cell below, so identical requests run them once.
// A failed run is not stored: a trapping program answers 400 every time.
func (s *Server) indirectRuns(ctx context.Context, c *compiled, cl *core.Clustering, req *Request, budget uint64) ([2]core.Measurement, error) {
	key := contentKey("indirect-runs", c.key, field(budget, req.Seed, req.Scale))
	return runner.Cached(s.store.mem, key, func() ([2]core.Measurement, error) {
		rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		defer cancel()
		// The baseline and clustered runs are only comparable when both
		// execute the whole program: the chain tests add branch events, so
		// a shared branch budget would cut the clustered run at an earlier
		// program point and the checksums would diverge. Scale the workload
		// down to fit the budget instead (programs without a wscale knob run
		// as-is) and keep four times the budget as a generous envelope
		// rather than the measuring cut-off. The profiled cell is not this
		// one, so both programs run live.
		scale := min(max(int64(budget/50_000), 1), 400)
		cell := core.Cell{Budget: 4 * budget, Seed: req.Seed, Scale: req.Scale}.Fill(c.prog, 0, scale)
		var runs [2]core.Measurement
		for i, prog := range []*ir.Program{cl.Baseline, cl.Clustered} {
			var err error
			if runs[i], err = core.Measure(rctx, prog, cell, nil); err != nil {
				return runs, programFault(err)
			}
			s.eng.CountLiveRun()
		}
		return runs, nil
	})
}

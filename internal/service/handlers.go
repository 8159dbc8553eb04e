package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"errors"
	"net/http"

	"repro/internal/bench"
	"repro/internal/diskstore"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/runner"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// Request is the common body of the four pipeline endpoints; each endpoint
// reads the fields it needs and rejects combinations that make no sense.
type Request struct {
	// Source is BL program text; Workload names a built-in benchmark.
	// Exactly one of the two selects the program (score may instead take
	// only a trace).
	Source   string `json:"source,omitempty"`
	Workload string `json:"workload,omitempty"`

	// Budget bounds branch events per run (0 = server default, capped by
	// the server's MaxBudget); Seed/Scale override the wseed/wscale
	// globals (0 = program defaults).
	Budget uint64 `json:"budget,omitempty"`
	Seed   int64  `json:"seed,omitempty"`
	Scale  int64  `json:"scale,omitempty"`

	// States bounds machine sizes for /v1/machines and /v1/replicate
	// (default 5); MaxPathLen caps correlated path lengths (default 1,
	// which keeps every selection realizable by the replicator).
	States     int `json:"states,omitempty"`
	MaxPathLen int `json:"max_path_len,omitempty"`

	// Family selects the replication family for /v1/replicate: "" or
	// "branch" is the paper's two-way branch replication, "indirect" is
	// switch-dispatch case clustering. Unknown families are rejected.
	Family string `json:"family,omitempty"`

	// MaxSizeFactor bounds code growth in /v1/replicate (default 3);
	// Joint selects the §6 joint machines; IncludeIR returns the
	// transformed program text; Check runs the replication-equivalence
	// verifier on the transform (also settable as the check=true query
	// parameter); StaticBudget makes /v1/replicate skip replication at
	// sites the static analysis (/v1/analyze) proved one-way — budget is
	// never spent on statically-decided branches.
	MaxSizeFactor float64 `json:"max_size_factor,omitempty"`
	Joint         bool    `json:"joint,omitempty"`
	IncludeIR     bool    `json:"include_ir,omitempty"`
	Check         bool    `json:"check,omitempty"`
	StaticBudget  bool    `json:"static_budget,omitempty"`

	// TraceB64 is a base64 BLTRACE1 stream for /v1/score; Strategy picks
	// the scoring strategy (profile, last, twobit, static); Preds is the
	// per-site prediction vector for strategy "static" (entries "taken",
	// "not_taken", or "none").
	TraceB64 string   `json:"trace_b64,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	Preds    []string `json:"preds,omitempty"`
}

// compiled is an immutable compiled program shared across requests via the
// content-addressed store. Branch sites are numbered once here; downstream
// transforms always work on clones.
type compiled struct {
	prog   *ir.Program
	name   string
	key    string // content hash of the program, reused in derived keys
	nsites int
	feats  []predict.SiteFeatures
}

// artifact is the record-once product of one (program, budget, seed,
// scale) cell: the sealed branch trace plus run counters. Immutable; a
// sealed slab is safe for concurrent replay.
type artifact struct {
	slab      *trace.Slab
	branches  uint64
	steps     uint64
	checksum  uint64
	truncated bool
	// pin holds the disk mapping the slab's event bytes alias, when the
	// artifact was opened zero-copy from the disk tier; it keeps the
	// mapping alive exactly as long as the artifact.
	pin *diskstore.Mapped
}

// RateBlock is the predicted/mispredicted summary used across responses.
type RateBlock struct {
	Predicted    uint64  `json:"predicted"`
	Mispredicted uint64  `json:"mispredicted"`
	RatePct      float64 `json:"rate_pct"`
}

func rateBlock(misses, total uint64) RateBlock {
	b := RateBlock{Predicted: total, Mispredicted: misses}
	if total > 0 {
		b.RatePct = 100 * float64(misses) / float64(total)
	}
	return b
}

// resolveProgram compiles (or fetches) the request's program.
func (s *Server) resolveProgram(req *Request) (*compiled, error) {
	switch {
	case req.Workload != "" && req.Source != "":
		return nil, badRequest("give either workload or source, not both")
	case req.Workload != "":
		key := contentKey("prog", "workload", req.Workload)
		return runner.Cached(s.store, key, func() (*compiled, error) {
			w, err := bench.ByName(req.Workload)
			if err != nil {
				return nil, &httpError{http.StatusBadRequest, err.Error()}
			}
			c, err := bench.Compile(w)
			if err != nil {
				return nil, err
			}
			return &compiled{prog: c.Prog, name: w.Name, key: key, nsites: c.NSites, feats: c.Features}, nil
		})
	case req.Source != "":
		key := contentKey("prog", "source", req.Source)
		return runner.Cached(s.store, key, func() (*compiled, error) {
			prog, err := lang.Compile(req.Source)
			if err != nil {
				return nil, &httpError{http.StatusBadRequest, "compiling source: " + err.Error()}
			}
			n := prog.NumberBranches(true)
			return &compiled{prog: prog, name: "source", key: key, nsites: n, feats: predict.Analyze(prog)}, nil
		})
	default:
		return nil, badRequest("request needs a workload or source program")
	}
}

// budgetFor applies the server's default and cap.
func (s *Server) budgetFor(req *Request) (uint64, error) {
	b := req.Budget
	if b == 0 {
		b = s.cfg.DefaultBudget
	}
	if b > s.cfg.MaxBudget {
		return 0, badRequest("budget %d exceeds the server cap %d", b, s.cfg.MaxBudget)
	}
	return b, nil
}

// newMachine prepares an interpreter run of prog, which is c's program or
// a transformed clone of it, under the request's dataset knobs. The context
// is threaded into the run loop, so a disconnected client or an expired
// deadline stops the machine. The step backstop bounds even branch-free
// loops.
func (s *Server) newMachine(ctx context.Context, c *compiled, prog *ir.Program, budget uint64, req *Request) (*exec.Machine, error) {
	ep, _ := exec.Interp.Compile(prog) // the interpreter's compile never fails
	m := ep.NewMachine()
	m.SetContext(ctx, 0)
	m.SetMaxBranches(budget)
	m.SetMaxSteps(stepBackstop(budget))
	if req.Seed != 0 {
		if err := m.SetGlobal("wseed", req.Seed); err != nil {
			return nil, badRequest("seed override: program %s has no wseed global", c.name)
		}
	}
	switch {
	case req.Scale != 0:
		if err := m.SetGlobal("wscale", req.Scale); err != nil {
			return nil, badRequest("scale override: program %s has no wscale global", c.name)
		}
	case budget != 0:
		// Budgeted runs should not finish early; built-in workloads scale
		// via wscale, ad-hoc programs need not declare it.
		_ = m.SetGlobal("wscale", 1<<30)
	}
	return m, nil
}

// stepBackstop is the instruction limit of every run under a branch
// budget: it bounds even branch-free loops.
func stepBackstop(budget uint64) uint64 { return 512 * budget }

// runMachine executes m, treating the branch budget as normal completion.
func runMachine(m *exec.Machine) (truncated bool, err error) {
	if _, err := m.Run(); err != nil {
		if errors.Is(err, interp.ErrLimit) {
			return true, nil
		}
		return false, err
	}
	return false, nil
}

// programFault makes a failure of the request's own program a 400: a trap
// (division by zero, an out-of-bounds index) or an unrunnable main is the
// client's program at fault, not the daemon. Other errors pass through.
func programFault(err error) error {
	var trap *interp.RuntimeError
	if errors.As(err, &trap) || errors.Is(err, interp.ErrNoMain) || errors.Is(err, interp.ErrMainParams) {
		return &httpError{http.StatusBadRequest, err.Error()}
	}
	return err
}

// artifactFor records — or fetches from the store — the branch trace of
// one program cell. Population is single-flight, so the recording runs
// under a detached context bounded by the server's RequestTimeout rather
// than the first requester's: one client disconnecting must not fail every
// concurrent waiter sharing the entry. Failed recordings are not cached
// (the store drops errors), so a retry after a timeout starts clean.
func (s *Server) artifactFor(ctx context.Context, c *compiled, req *Request, budget uint64) (*artifact, error) {
	key := artifactKey(c.key, budget, req)
	return runner.Cached(s.store, key, func() (*artifact, error) {
		rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		defer cancel()
		m, err := s.newMachine(rctx, c, c.prog, budget, req)
		if err != nil {
			return nil, err
		}
		slab := trace.NewSlab(int(budget))
		m.SetRec(slab)
		truncated, err := runMachine(m)
		if err != nil {
			return nil, programFault(err)
		}
		slab.Seal()
		s.eng.CountRecord(int64(slab.Len()))
		mc := m.Counters()
		return &artifact{
			slab:      slab,
			branches:  mc.Branches,
			steps:     mc.Steps,
			checksum:  mc.Checksum,
			truncated: truncated,
		}, nil
	})
}

// profileFor replays an artifact into the full profile bundle (local,
// global, and path pattern tables), memoised content-addressed.
func (s *Server) profileFor(ctx context.Context, c *compiled, req *Request, budget uint64) (*profile.Profile, *artifact, error) {
	art, err := s.artifactFor(ctx, c, req, budget)
	if err != nil {
		return nil, nil, err
	}
	key := contentKey("prof", c.key, field(budget, req.Seed, req.Scale))
	prof, err := runner.Cached(s.store, key, func() (*profile.Profile, error) {
		p := profile.New(c.nsites, profile.Options{LocalK: 9, GlobalK: 9, PathM: 3})
		art.slab.ReplayInto(p)
		s.eng.CountReplay(int64(art.slab.Len()))
		return p, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return prof, art, nil
}

// --- POST /v1/profile ---------------------------------------------------

// SiteCounts is one branch site's profile row.
type SiteCounts struct {
	Site     int32  `json:"site"`
	Taken    uint64 `json:"taken"`
	NotTaken uint64 `json:"not_taken"`
	// Pred is the majority direction ("taken" / "not_taken"); ties predict
	// not_taken, the repository-wide convention.
	Pred string `json:"pred"`
}

// ProfileResponse answers /v1/profile.
type ProfileResponse struct {
	SchemaV   string       `json:"schema"`
	Kind      string       `json:"kind"`
	Program   string       `json:"program"`
	NumSites  int          `json:"num_sites"`
	Events    uint64       `json:"events"`
	Steps     uint64       `json:"steps"`
	Checksum  uint64       `json:"checksum"`
	Truncated bool         `json:"truncated"`
	Profile   RateBlock    `json:"profile"`
	Sites     []SiteCounts `json:"sites"`
}

func (s *Server) handleProfile(ctx context.Context, req *Request) (any, error) {
	c, err := s.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	budget, err := s.budgetFor(req)
	if err != nil {
		return nil, err
	}
	// The profile bundle is memoised in the store; serving a hot program
	// replays nothing. (Cold cost is the full bundle — pattern tables
	// included — but /v1/machines needs those anyway.)
	prof, art, err := s.profileFor(ctx, c, req, budget)
	if err != nil {
		return nil, err
	}
	counts := prof.Counts
	r := predict.ProfileResult(counts)
	resp := &ProfileResponse{
		SchemaV:   Schema,
		Kind:      "profile",
		Program:   c.name,
		NumSites:  c.nsites,
		Events:    art.branches,
		Steps:     art.steps,
		Checksum:  art.checksum,
		Truncated: art.truncated,
		Profile:   rateBlock(r.Misses, r.Total),
	}
	for site := int32(0); site < int32(c.nsites); site++ {
		if counts.Total(site) == 0 {
			continue
		}
		pred := "not_taken"
		if counts.Taken[site] > counts.NotTaken[site] {
			pred = "taken"
		}
		resp.Sites = append(resp.Sites, SiteCounts{
			Site: site, Taken: counts.Taken[site], NotTaken: counts.NotTaken[site], Pred: pred,
		})
	}
	return resp, nil
}

// --- POST /v1/machines --------------------------------------------------

// ChoiceJSON is one branch's selected strategy.
type ChoiceJSON struct {
	Site   int32  `json:"site"`
	Kind   string `json:"kind"`
	States int    `json:"states"`
	RateBlock
	ProfileRatePct float64 `json:"profile_rate_pct"`
}

// MachinesResponse answers /v1/machines.
type MachinesResponse struct {
	SchemaV    string       `json:"schema"`
	Kind       string       `json:"kind"`
	Program    string       `json:"program"`
	NumSites   int          `json:"num_sites"`
	Events     uint64       `json:"events"`
	States     int          `json:"states"`
	MaxPathLen int          `json:"max_path_len"`
	Aggregate  RateBlock    `json:"aggregate"`
	Profile    RateBlock    `json:"profile"`
	Choices    []ChoiceJSON `json:"choices"`
}

// maxStates caps a request's machine size at the paper's largest (Table 5
// sweeps 2..10). The replay-scored loop search enumerates every
// suffix-closed set and grows about 3.7× per extra state without polling
// the request context, so a larger size would keep a core busy long after
// the deadline.
const maxStates = 10

func (req *Request) machineOpts() (states, pathLen int, err error) {
	states = req.States
	if states == 0 {
		states = 5
	}
	if states < 2 || states > maxStates {
		return 0, 0, badRequest("states %d out of range [2,%d]", states, maxStates)
	}
	pathLen = req.MaxPathLen
	if pathLen == 0 {
		pathLen = 1
	}
	if pathLen < 1 || pathLen > 3 {
		return 0, 0, badRequest("max_path_len %d out of range [1,3]", pathLen)
	}
	return states, pathLen, nil
}

func (s *Server) handleMachines(ctx context.Context, req *Request) (any, error) {
	c, err := s.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	budget, err := s.budgetFor(req)
	if err != nil {
		return nil, err
	}
	states, pathLen, err := req.machineOpts()
	if err != nil {
		return nil, err
	}
	prof, art, err := s.profileFor(ctx, c, req, budget)
	if err != nil {
		return nil, err
	}
	choices := statemachine.Select(prof, c.feats, statemachine.Options{
		MaxStates:  states,
		MaxPathLen: pathLen,
	})
	misses, total := statemachine.Aggregate(choices)
	r := predict.ProfileResult(prof.Counts)
	resp := &MachinesResponse{
		SchemaV:    Schema,
		Kind:       "machines",
		Program:    c.name,
		NumSites:   c.nsites,
		Events:     art.branches,
		States:     states,
		MaxPathLen: pathLen,
		Aggregate:  rateBlock(misses, total),
		Profile:    rateBlock(r.Misses, r.Total),
	}
	for i := range choices {
		ch := &choices[i]
		if ch.Total == 0 {
			continue
		}
		cj := ChoiceJSON{
			Site:      ch.Site,
			Kind:      ch.Kind.String(),
			States:    ch.NumStates(),
			RateBlock: rateBlock(ch.Misses(), ch.Total),
		}
		if ch.ProfileTotal > 0 {
			cj.ProfileRatePct = 100 * float64(ch.ProfileTotal-ch.ProfileHits) / float64(ch.ProfileTotal)
		}
		resp.Choices = append(resp.Choices, cj)
	}
	return resp, nil
}

// --- POST /v1/replicate -------------------------------------------------

// MeasuredRun is one interpreter-verified run of an annotated program.
type MeasuredRun struct {
	RateBlock
	Checksum uint64 `json:"checksum"`
}

// ReplicateResponse answers /v1/replicate.
type ReplicateResponse struct {
	SchemaV    string      `json:"schema"`
	Kind       string      `json:"kind"`
	Program    string      `json:"program"`
	States     int         `json:"states"`
	Joint      bool        `json:"joint"`
	Baseline   MeasuredRun `json:"baseline"`
	Replicated MeasuredRun `json:"replicated"`
	Code       struct {
		InstrsBefore int     `json:"instrs_before"`
		InstrsAfter  int     `json:"instrs_after"`
		SizeFactor   float64 `json:"size_factor"`
	} `json:"code"`
	Machines struct {
		Loop          int `json:"loop"`
		Exit          int `json:"exit"`
		Correlated    int `json:"correlated"`
		EdgesRouted   int `json:"edges_routed"`
		EdgesCatchAll int `json:"edges_catch_all"`
		Skipped       int `json:"skipped"`
		StaticSkipped int `json:"static_skipped"`
	} `json:"machines"`
	SemanticsVerified bool `json:"semantics_verified"`
	// Verified reports the replication-equivalence verifier's verdict; it
	// is false unless the request asked for verification (check).
	Verified bool   `json:"verified"`
	IR       string `json:"ir,omitempty"`
}

func (s *Server) handleReplicate(ctx context.Context, req *Request) (any, error) {
	switch req.Family {
	case "", "branch":
		// The paper's family, below.
	case "indirect":
		return s.handleReplicateIndirect(ctx, req)
	default:
		return nil, badRequest("unknown family %q (want \"branch\" or \"indirect\")", req.Family)
	}
	c, err := s.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	budget, err := s.budgetFor(req)
	if err != nil {
		return nil, err
	}
	states, pathLen, err := req.machineOpts()
	if err != nil {
		return nil, err
	}
	sizeFactor := req.MaxSizeFactor
	if sizeFactor == 0 {
		sizeFactor = 3
	}
	if sizeFactor < 1 || sizeFactor > 64 {
		return nil, badRequest("max_size_factor %.2f out of range [1,64]", sizeFactor)
	}
	prof, art, err := s.profileFor(ctx, c, req, budget)
	if err != nil {
		return nil, err
	}
	choices := statemachine.Select(prof, c.feats, statemachine.Options{
		MaxStates:  states,
		MaxPathLen: pathLen,
	})
	preds := predict.ProfileStatic(prof.Counts).Preds

	// The annotated baseline differs from the recorded program only in its
	// Pred annotations, so its run is the recording: the prediction vector
	// scored over the trace, with the recording's checksum. StaticScore is
	// order-insensitive, so folding in the trace's per-site totals — the
	// profile's counts, replayed from this slab — scores it exactly as a
	// second replay would.
	score := &predict.StaticScore{Preds: preds}
	for site := range prof.Counts.Taken {
		score.RecordRun(int32(site), true, prof.Counts.Taken[site])
		score.RecordRun(int32(site), false, prof.Counts.NotTaken[site])
	}
	base := MeasuredRun{RateBlock: rateBlock(score.Mispredicted, score.Predicted), Checksum: art.checksum}

	ropts := replicate.Options{MaxSizeFactor: sizeFactor, Verify: req.Check}
	if req.StaticBudget {
		// The "budget: static" mode: sites the dataflow analysis proved
		// one-way get no replication machinery — a static annotation is
		// already a perfect predictor there.
		rep, err := s.staticReportFor(c)
		if err != nil {
			return nil, err
		}
		ropts.StaticSkip = rep.DecidedSites()
	}

	clone := ir.CloneProgram(c.prog)
	apply := replicate.ApplyOpts
	if req.Joint {
		apply = replicate.ApplyJoint
	}
	st, err := apply(clone, choices, preds, ropts)
	if err != nil {
		if errors.Is(err, replicate.ErrVerify) {
			// The transform produced a program the verifier cannot prove
			// equivalent — a daemon-side fault, never the client's.
			s.verifyFail.Add(1)
			return nil, &httpError{http.StatusInternalServerError, err.Error()}
		}
		return nil, err
	}
	if s.mutateClone != nil {
		s.mutateClone(clone)
	}
	repl, err := s.measureClone(ctx, c, clone, st.Verified, art, budget, req)
	if err != nil {
		if errors.Is(err, replicate.ErrWalkMismatch) {
			// The verified clone left the recorded path: the walk refutes
			// the transform, again a daemon-side fault.
			s.verifyFail.Add(1)
			return nil, &httpError{http.StatusInternalServerError, err.Error()}
		}
		return nil, err
	}
	if st.Verified {
		s.verifyOK.Add(1)
	}

	resp := &ReplicateResponse{
		SchemaV:           Schema,
		Kind:              "replicate",
		Program:           c.name,
		States:            states,
		Joint:             req.Joint,
		Baseline:          base,
		Replicated:        repl,
		SemanticsVerified: base.Checksum == repl.Checksum,
		Verified:          st.Verified,
	}
	resp.Code.InstrsBefore = st.InstrsBefore
	resp.Code.InstrsAfter = st.InstrsAfter
	resp.Code.SizeFactor = st.SizeFactor()
	resp.Machines.Loop = st.LoopApplied
	resp.Machines.Exit = st.ExitApplied
	resp.Machines.Correlated = st.PathApplied
	resp.Machines.EdgesRouted = st.PathEdgesRouted
	resp.Machines.EdgesCatchAll = st.PathEdgesCatchAll
	resp.Machines.Skipped = st.Skipped
	resp.Machines.StaticSkipped = st.StaticSkipped
	if req.IncludeIR {
		resp.IR = clone.String()
	}
	return resp, nil
}

// measureClone measures a transformed clone on the request's dataset. A
// clone the equivalence verifier proved (verified) is walked along the
// recorded trace: its bodies are verbatim copies of the original's, so
// once the walk also confirms the recorded path, its output is the
// recording's and so is its checksum. Any other clone, and any run whose
// stop the walk cannot reproduce, runs live. A walk that leaves the
// recorded path fails with replicate.ErrWalkMismatch.
func (s *Server) measureClone(ctx context.Context, c *compiled, clone *ir.Program, verified bool,
	art *artifact, budget uint64, req *Request) (MeasuredRun, error) {
	if verified {
		res, err := replicate.Walk(ctx, clone, art.slab, replicate.WalkLimits{
			MaxBranches: budget, MaxSteps: stepBackstop(budget), Truncated: art.truncated,
		})
		if err == nil {
			s.eng.CountWalk()
			return MeasuredRun{RateBlock: rateBlock(res.Mispredicted, res.Predicted), Checksum: art.checksum}, nil
		}
		if !errors.Is(err, replicate.ErrWalkFallback) {
			return MeasuredRun{}, err
		}
	}
	m, err := s.newMachine(ctx, c, clone, budget, req)
	if err != nil {
		return MeasuredRun{}, err
	}
	if _, err := runMachine(m); err != nil {
		return MeasuredRun{}, err
	}
	s.eng.CountLiveRun()
	mc := m.Counters()
	return MeasuredRun{RateBlock: rateBlock(mc.Mispredicted, mc.Predicted), Checksum: mc.Checksum}, nil
}

// --- POST /v1/score -----------------------------------------------------

// ScoreResponse answers /v1/score.
type ScoreResponse struct {
	SchemaV  string    `json:"schema"`
	Kind     string    `json:"kind"`
	Strategy string    `json:"strategy"`
	Source   string    `json:"source"`
	NumSites int       `json:"num_sites"`
	Events   uint64    `json:"events"`
	Score    RateBlock `json:"score"`
}

func (s *Server) handleScore(ctx context.Context, req *Request) (any, error) {
	strategy := req.Strategy
	if strategy == "" {
		strategy = "profile"
	}

	var slab *trace.Slab
	var source string
	switch {
	case req.TraceB64 != "":
		if req.Workload != "" || req.Source != "" {
			return nil, badRequest("give either trace_b64 or a program, not both")
		}
		raw, err := base64.StdEncoding.DecodeString(req.TraceB64)
		if err != nil {
			return nil, badRequest("trace_b64: %v", err)
		}
		slab, err = trace.ReadSlab(bytes.NewReader(raw), s.cfg.TraceLimits)
		if err != nil {
			if errors.Is(err, trace.ErrTooLarge) {
				return nil, &httpError{http.StatusRequestEntityTooLarge, err.Error()}
			}
			return nil, badRequest("decoding trace: %v", err)
		}
		source = "upload"
	default:
		c, err := s.resolveProgram(req)
		if err != nil {
			return nil, err
		}
		budget, err := s.budgetFor(req)
		if err != nil {
			return nil, err
		}
		art, err := s.artifactFor(ctx, c, req, budget)
		if err != nil {
			return nil, err
		}
		slab = art.slab
		source = c.name
	}

	nsites, score, err := s.scoreSlab(slab, strategy, req.Preds)
	if err != nil {
		return nil, err
	}
	return &ScoreResponse{
		SchemaV:  Schema,
		Kind:     "score",
		Strategy: strategy,
		Source:   source,
		NumSites: nsites,
		Events:   slab.Len(),
		Score:    score,
	}, nil
}

// scoreSlab replays one trace against a strategy. Site table sizes come
// from the trace itself, so uploaded traces need no side channel
// describing their program. All decode/collector state — the site scan,
// count tables, predictors, and the prediction vector — comes from the
// request-scoped scorePool, so the batch pipeline's hottest endpoint
// allocates nothing proportional to the request rate.
func (s *Server) scoreSlab(slab *trace.Slab, strategy string, reqPreds []string) (nsites int, score RateBlock, err error) {
	st := scorePool.Get().(*scoreState)
	defer scorePool.Put(st)
	st.max.N = 0
	slab.ReplayInto(&st.max)
	nsites = st.max.N

	switch strategy {
	case "profile":
		counts := st.countsFor(nsites)
		slab.ReplayInto(counts)
		r := predict.ProfileResult(counts)
		score = rateBlock(r.Misses, r.Total)
	case "last":
		eval := predict.Eval{P: st.lastFor(nsites)}
		slab.ReplayInto(&eval)
		score = rateBlock(eval.Misses, eval.Total)
	case "twobit":
		eval := predict.Eval{P: st.twobitFor(nsites)}
		slab.ReplayInto(&eval)
		score = rateBlock(eval.Misses, eval.Total)
	case "static":
		if len(reqPreds) > nsites {
			return 0, RateBlock{}, badRequest("preds has %d entries for %d sites", len(reqPreds), nsites)
		}
		preds := st.predsFor(nsites)
		for i, p := range reqPreds {
			switch p {
			case "taken":
				preds[i] = ir.PredTaken
			case "not_taken":
				preds[i] = ir.PredNotTaken
			case "none", "":
				preds[i] = ir.PredNone
			default:
				return 0, RateBlock{}, badRequest("preds[%d]: unknown prediction %q", i, p)
			}
		}
		fold := predict.StaticScore{Preds: preds}
		slab.ReplayInto(&fold)
		score = rateBlock(fold.Mispredicted, fold.Predicted)
	default:
		return 0, RateBlock{}, badRequest("unknown strategy %q (want profile, last, twobit, or static)", strategy)
	}
	s.eng.CountReplay(int64(slab.Len()))
	return nsites, score, nil
}

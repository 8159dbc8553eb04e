package service

import (
	"context"
	"encoding/base64"
	"errors"
	"net/http"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/diskstore"
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

	// TraceB64 is a base64 BLTRACE1 stream for /v1/score, which alone
	// accepts one (the other endpoints answer 400); Strategy picks
	// the scoring strategy (profile, last, twobit, static); Preds is the
	// per-site prediction vector for strategy "static" (entries "taken",
	// "not_taken", or "none").
	TraceB64 string   `json:"trace_b64,omitempty"`
	Strategy string   `json:"strategy,omitempty"`
	Preds    []string `json:"preds,omitempty"`

	// upload is trace_b64 decoded straight from an endpoint's body (see
	// decodeRequest), which then leaves TraceB64 empty; nil when the body
	// had no non-empty trace_b64 string to decode.
	upload []byte
}

// uploaded reports whether the request carries a trace, in either form.
func (req *Request) uploaded() bool { return req.TraceB64 != "" || req.upload != nil }

// compiled is an immutable compiled program shared across requests via the
// content-addressed store. Branch sites are numbered once here; downstream
// transforms always work on clones.
type compiled struct {
	prog   *ir.Program
	name   string
	key    string // content hash of the program, reused in derived keys
	nsites int
	feats  []predict.SiteFeatures
	// outcomes bounds the events a recording of prog can hold (see
	// outcomeBounds); stored artifacts are checked against it.
	outcomes []int32
}

// newCompiled numbers prog's branch sites and derives what every request
// reads of it.
func newCompiled(prog *ir.Program, name, key string) *compiled {
	n := prog.NumberBranches(true)
	return &compiled{prog: prog, name: name, key: key, nsites: n, feats: predict.Analyze(prog), outcomes: outcomeBounds(prog, n)}
}

// artifact is the recording of one (program, budget, seed, scale) cell.
// Immutable; a sealed slab is safe for concurrent replay.
type artifact struct {
	core.Recording
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
		return runner.Cached(s.store.mem, key, func() (*compiled, error) {
			w, err := bench.ByName(req.Workload)
			if err != nil {
				return nil, &httpError{http.StatusBadRequest, err.Error()}
			}
			prog, err := lang.Compile(w.Source)
			if err != nil {
				return nil, err
			}
			return newCompiled(prog, w.Name, key), nil
		})
	case req.Source != "":
		key := contentKey("prog", "source", req.Source)
		return runner.Cached(s.store.mem, key, func() (*compiled, error) {
			prog, err := lang.Compile(req.Source)
			if err != nil {
				return nil, &httpError{http.StatusBadRequest, "compiling source: " + err.Error()}
			}
			return newCompiled(prog, "source", key), nil
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

// cellFor is the request's dataset cell for c. A seed or scale override
// c's program cannot take fails the run with core.ErrDataset, a 400. A
// budgeted run should not finish early: built-in workloads scale via
// wscale, and ad-hoc programs need not declare it.
func cellFor(c *compiled, budget uint64, req *Request) core.Cell {
	cell := core.Cell{Budget: budget, Seed: req.Seed, Scale: req.Scale}
	if budget != 0 {
		cell = cell.Fill(c.prog, 0, core.FullScale)
	}
	return cell
}

// programFault makes a failure of the request's own program a 400: a trap
// (division by zero, an out-of-bounds index), an unrunnable main or a
// dataset override the program has no global for is the client's program
// at fault, not the daemon. Other errors pass through.
func programFault(err error) error {
	var trap *interp.RuntimeError
	if errors.As(err, &trap) || errors.Is(err, interp.ErrNoMain) || errors.Is(err, interp.ErrMainParams) ||
		errors.Is(err, core.ErrDataset) {
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
	return s.store.artifact(key, c.outcomes, func() (*artifact, error) {
		rctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.RequestTimeout)
		defer cancel()
		rec, err := core.Record(rctx, c.prog, cellFor(c, budget, req))
		if err != nil {
			return nil, programFault(err)
		}
		s.eng.CountRecord(int64(rec.Slab.Len()))
		return &artifact{Recording: *rec}, nil
	})
}

// profileFor replays an artifact into the profile bundle (counts, path
// table, per-site streams, switch targets; no global table, which nothing
// here reads), memoised content-addressed.
// A program with more branch sites than a path table can tell apart is
// the client's to fix, so it is refused before anything is recorded.
func (s *Server) profileFor(ctx context.Context, c *compiled, req *Request, budget uint64) (*profile.Profile, *artifact, error) {
	if c.nsites > profile.MaxSites {
		return nil, nil, badRequest("program %s has %d branch sites; profiles hold at most %d", c.name, c.nsites, profile.MaxSites)
	}
	art, err := s.artifactFor(ctx, c, req, budget)
	if err != nil {
		return nil, nil, err
	}
	key := contentKey("prof", c.key, field(budget, req.Seed, req.Scale))
	prof, err := runner.Cached(s.store.mem, key, func() (*profile.Profile, error) {
		p := profile.New(c.nsites, profile.Options{})
		art.Slab.ReplayInto(p)
		s.eng.CountReplay(int64(art.Slab.Len()))
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
		Events:    art.Branches,
		Steps:     art.Steps,
		Checksum:  art.Checksum,
		Truncated: art.Truncated,
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
// suffix-closed set to rank them, and that enumeration, not the replay of
// the few best in one pass over the stream, is what grows with the state
// count: about 3.7× per extra state, without polling the request context,
// so a larger size would keep a core busy long after the deadline.
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
		Events:     art.Branches,
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
	apply := replicate.ApplyOpts
	if req.Joint {
		apply = replicate.ApplyJoint
	}
	if mutate := s.mutateClone; mutate != nil {
		transform := apply
		apply = func(clone *ir.Program, choices []statemachine.Choice, preds []ir.Prediction, o replicate.Options) (*replicate.Stats, error) {
			st, err := transform(clone, choices, preds, o)
			if err == nil {
				mutate(clone)
			}
			return st, err
		}
	}
	p := &core.Profiled{Prog: c.prog, Feats: c.feats, Cell: cellFor(c, budget, req), Rec: &art.Recording, Prof: prof}
	res, err := p.Replicate(ctx, statemachine.Options{MaxStates: states, MaxPathLen: pathLen}, apply, ropts)
	if err != nil {
		if errors.Is(err, replicate.ErrVerify) || errors.Is(err, replicate.ErrWalkMismatch) {
			// The verifier could not prove the transform, or the verified
			// clone left the recorded path: a daemon-side fault, never the
			// client's.
			s.verifyFail.Add(1)
			return nil, &httpError{http.StatusInternalServerError, err.Error()}
		}
		return nil, err
	}
	if res.Replica.Walked {
		s.eng.CountWalk()
	} else {
		s.eng.CountLiveRun()
	}
	st := res.Stats
	if st.Verified {
		s.verifyOK.Add(1)
	}
	base := MeasuredRun{RateBlock: rateBlock(res.Baseline.Mispredicted, res.Baseline.Predicted), Checksum: res.Baseline.Checksum}
	repl := MeasuredRun{RateBlock: rateBlock(res.Replica.Mispredicted, res.Replica.Predicted), Checksum: res.Replica.Checksum}

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
		resp.IR = res.Replicated.String()
	}
	return resp, nil
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

	var (
		slab   *trace.Slab
		source string
		nsites int
		score  RateBlock
	)
	switch {
	case req.uploaded():
		if req.Workload != "" || req.Source != "" {
			return nil, badRequest("give either trace_b64 or a program, not both")
		}
		raw, err := req.upload, error(nil)
		if raw == nil {
			if raw, err = base64.StdEncoding.DecodeString(req.TraceB64); err != nil {
				return nil, badRequest("trace_b64: %v", err)
			}
		}
		if slab, nsites, score, err = s.scoreUpload(raw, strategy, req.Preds); err != nil {
			return nil, err
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
		slab, source = art.Slab, c.name
		if nsites, score, err = s.scoreSlab(slab, strategy, req.Preds); err != nil {
			return nil, err
		}
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

// scoreUpload adopts an uploaded BLTRACE1 stream as a slab and scores it
// in the same pass: the pooled scorer folds the batches of trace.Adopt's
// validating pass, so the upload is decoded exactly once, its bytes are
// not copied (the slab aliases raw), and site tables grow with the sites
// it names. A refused trace answers first (413 past a limit, 400 when
// malformed), then the strategy and preds are judged.
func (s *Server) scoreUpload(raw []byte, strategy string, reqPreds []string) (*trace.Slab, int, RateBlock, error) {
	st := scorePool.Get().(*scoreState)
	defer scorePool.Put(st)
	a := trace.Adopt(raw, s.cfg.TraceLimits)
	if st.prepare(strategy, reqPreds) {
		st.score.Fold(&a.Steps)
	}
	slab, err := a.Slab()
	if err != nil {
		if errors.Is(err, trace.ErrTooLarge) {
			return nil, 0, RateBlock{}, &httpError{http.StatusRequestEntityTooLarge, err.Error()}
		}
		return nil, 0, RateBlock{}, badRequest("decoding trace: %v", err)
	}
	nsites, score, err := s.scored(st, slab, strategy, reqPreds)
	return slab, nsites, score, err
}

// scoreSlab folds a stored trace's steps once into the pooled scorer. Site
// table sizes come from the trace itself, so traces need no side channel
// describing their program.
func (s *Server) scoreSlab(slab *trace.Slab, strategy string, reqPreds []string) (nsites int, score RateBlock, err error) {
	st := scorePool.Get().(*scoreState)
	defer scorePool.Put(st)
	if st.prepare(strategy, reqPreds) {
		steps := slab.Steps()
		st.score.Fold(&steps)
	}
	return s.scored(st, slab, strategy, reqPreds)
}

// scored judges the request against the scored trace and returns its
// answer.
func (s *Server) scored(st *scoreState, slab *trace.Slab, strategy string, reqPreds []string) (int, RateBlock, error) {
	nsites := st.score.Sites()
	if err := judge(strategy, reqPreds, nsites); err != nil {
		return 0, RateBlock{}, err
	}
	s.eng.CountReplay(int64(slab.Len()))
	misses, total := st.score.Result()
	return nsites, rateBlock(misses, total), nil
}

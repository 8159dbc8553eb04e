package main

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/exec"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/predict"
	"repro/internal/profile"
	"repro/internal/replicate"
	"repro/internal/runner"
	"repro/internal/service"
	"repro/internal/statemachine"
	"repro/internal/trace"
)

// A mirror feeds a request workload's inputs through the layers in-process,
// calling the same public functions kralld's handlers call, in the same
// order and with the same store lookups, with a span around each call.
// Spans inside the program are a later change; these spans time the layers
// from the outside. TestMirrorMatchesServer pins every mirrored answer
// byte-equal to the server's.
type mirror interface {
	// prepare builds the inputs of requests 0..n-1 before timing starts.
	prepare(n int) error
	// request is request i as the closed loop posts it.
	request(i int) call
	// op runs request i, recording spans in tr (nil = untraced) and work
	// counts in l, checks its answer, and returns the answer as kralld
	// encodes it.
	op(tr *tracer, i int, l *layerCounts) ([]byte, error)
}

// requestSpans names the layer spans a mirrored request records.
var requestSpans = []string{
	"service.decode", "runner.store", "lang.parse", "lang.check", "lang.lower", "predict.features",
	"analysis.static", "trace.read", "predict.score", "interp.record", "profile.fold",
	"statemachine.select", "predict.static", "interp.measure", "replicate.apply", "service.encode",
}

// kralld's default store size; every mirror store has it.
const storeEntries, storeShards = 128, 8

// encode is json.Marshal plus the newline kralld ends every answer with.
func encode(v any) ([]byte, error) {
	out, err := json.Marshal(v)
	return append(out, '\n'), err
}

// runProgram runs prog on the interpreter the way kralld does: dataset
// seed wseed, scale raised past the branch budget, the budget reached
// counting as normal completion. rec and hook, when set, observe the
// branch events.
func runProgram(prog *ir.Program, wseed int64, budget uint64, rec *trace.Slab, hook func(*ir.Term, bool)) (exec.Counters, error) {
	ep, err := exec.Interp.Compile(prog)
	if err != nil {
		return exec.Counters{}, err
	}
	return runCompiled(ep, wseed, budget, rec, hook)
}

// runCompiled is runProgram on an already compiled program.
func runCompiled(ep exec.Program, wseed int64, budget uint64, rec *trace.Slab, hook func(*ir.Term, bool)) (exec.Counters, error) {
	m := ep.NewMachine()
	m.SetMaxBranches(budget)
	m.SetMaxSteps(512 * budget)
	if err := m.SetGlobal("wseed", wseed); err != nil {
		return exec.Counters{}, err
	}
	if err := m.SetGlobal("wscale", 1<<30); err != nil {
		return exec.Counters{}, err
	}
	m.SetRec(rec)
	m.SetHook(hook)
	if _, err := m.Run(); err != nil && !errors.Is(err, interp.ErrLimit) {
		return exec.Counters{}, err
	}
	return m.Counters(), nil
}

func rateBlock(misses, total uint64) service.RateBlock {
	b := service.RateBlock{Predicted: total, Mispredicted: misses}
	if total > 0 {
		b.RatePct = 100 * float64(misses) / float64(total)
	}
	return b
}

// coldMirror mirrors /v1/replicate with check, as handleReplicate runs it:
// the program from the store, then recording and folding as store fills,
// then select, annotate and measure the baseline, replicate and verify,
// measure, encode.
type coldMirror struct {
	seed   int64
	budget uint64
	store  *runner.Sharded
	bodies [][]byte
}

// coldProgram is a compiled catalog program as kralld's store keeps it.
type coldProgram struct {
	*bench.Compiled
	ep exec.Program
}

// recording is a recorded trace as kralld's store keeps it.
type recording struct {
	slab *trace.Slab
	runs exec.Counters
}

func compileCatalog(name string) func() (*coldProgram, error) {
	return func() (*coldProgram, error) {
		w, err := bench.ByName(name)
		if err != nil {
			return nil, err
		}
		c, err := bench.Compile(w)
		if err != nil {
			return nil, err
		}
		ep, err := exec.Interp.Compile(c.Prog)
		if err != nil {
			return nil, err
		}
		return &coldProgram{c, ep}, nil
	}
}

func (m *coldMirror) prepare(n int) error {
	// The programs enter the store in set-up, as the server's warm-up
	// compiles them.
	m.store = runner.NewSharded(storeEntries, storeShards)
	for _, name := range catalog(m.seed) {
		if _, err := runner.Cached(m.store, "prog/"+name, compileCatalog(name)); err != nil {
			return err
		}
	}
	m.bodies = make([][]byte, n)
	for i := range m.bodies {
		m.bodies[i] = mustJSON(coldRequest(m.seed, i, m.budget))
	}
	return nil
}

func (m *coldMirror) request(i int) call { return call{"replicate", m.bodies[i]} }

func (m *coldMirror) op(tr *tracer, i int, l *layerCounts) ([]byte, error) {
	var req service.Request
	tr.begin("service.decode")
	err := json.Unmarshal(m.bodies[i], &req)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("runner.store")
	c, err := runner.Cached(m.store, "prog/"+req.Workload, compileCatalog(req.Workload))
	tr.end()
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s|%d|%d", req.Workload, m.budget, req.Seed)
	tr.begin("runner.store")
	rec, err := runner.Cached(m.store, "art/"+key, func() (*recording, error) {
		slab := trace.NewSlab(int(m.budget))
		tr.begin("interp.record")
		defer tr.end()
		runs, err := runCompiled(c.ep, req.Seed, m.budget, slab, nil)
		slab.Seal()
		return &recording{slab, runs}, err
	})
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("runner.store")
	prof, err := runner.Cached(m.store, "prof/"+key, func() (*profile.Profile, error) {
		tr.begin("profile.fold")
		defer tr.end()
		p := profile.New(c.NSites, profile.Options{LocalK: 9, GlobalK: 9, PathM: 3})
		rec.slab.ReplayInto(p)
		return p, nil
	})
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("statemachine.select")
	choices := statemachine.Select(prof, c.Features, statemachine.Options{MaxStates: 5, MaxPathLen: 1})
	tr.end()
	tr.begin("predict.static")
	preds := predict.ProfileStatic(prof.Counts).Preds
	tr.end()
	tr.begin("interp.measure")
	baseline := ir.CloneProgram(c.Prog)
	replicate.Annotate(baseline, preds)
	base, err := runProgram(baseline, req.Seed, m.budget, nil, nil)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("replicate.apply")
	clone := ir.CloneProgram(c.Prog)
	st, err := replicate.ApplyOpts(clone, choices, preds, replicate.Options{MaxSizeFactor: 3, Verify: true})
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("interp.measure")
	rep, err := runProgram(clone, req.Seed, m.budget, nil, nil)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("service.encode")
	resp := &service.ReplicateResponse{
		SchemaV:           service.Schema,
		Kind:              "replicate",
		Program:           c.Workload.Name,
		States:            5,
		Baseline:          service.MeasuredRun{RateBlock: rateBlock(base.Mispredicted, base.Predicted), Checksum: base.Checksum},
		Replicated:        service.MeasuredRun{RateBlock: rateBlock(rep.Mispredicted, rep.Predicted), Checksum: rep.Checksum},
		SemanticsVerified: base.Checksum == rep.Checksum,
		Verified:          st.Verified,
	}
	resp.Code.InstrsBefore, resp.Code.InstrsAfter, resp.Code.SizeFactor = st.InstrsBefore, st.InstrsAfter, st.SizeFactor()
	resp.Machines.Loop, resp.Machines.Exit, resp.Machines.Correlated = st.LoopApplied, st.ExitApplied, st.PathApplied
	resp.Machines.EdgesRouted, resp.Machines.EdgesCatchAll = st.PathEdgesRouted, st.PathEdgesCatchAll
	resp.Machines.Skipped, resp.Machines.StaticSkipped = st.Skipped, st.StaticSkipped
	out, err := encode(resp)
	tr.end()
	if err != nil {
		return nil, err
	}
	l.branches += rec.runs.Branches + base.Branches + rep.Branches
	l.events += rec.slab.Len()
	l.choices += len(choices)
	l.sizeFactor += st.SizeFactor()
	l.applies++
	return out, checkReplicate(out, req.Workload)
}

// hotMirror mirrors a store-served request: decode, look the answer up,
// encode it.
type hotMirror struct {
	seed  int64
	calls []call
	warm  [][]byte // the answers the set-up received
	store *runner.Sharded
	order []int
}

var errNotWarm = errors.New("answer missing from the warmed store")

func (m *hotMirror) prepare(n int) error {
	m.store = runner.NewSharded(storeEntries, storeShards)
	for k, c := range m.calls {
		v, err := decodeAnswer(c.endpoint, m.warm[k])
		if err != nil {
			return err
		}
		// Encoding the decoded answer must give back the server's bytes;
		// checked once here, so the passes time only the mirrored work.
		out, err := encode(v)
		if err != nil {
			return err
		}
		if err := checkHot(out, m.warm[k]); err != nil {
			return fmt.Errorf("%s answer does not re-encode: %w", c.endpoint, err)
		}
		if _, err := runner.Cached(m.store, storeKey(c), func() (any, error) { return v, nil }); err != nil {
			return err
		}
	}
	m.order = make([]int, n)
	for i := range m.order {
		m.order[i] = hotIndex(m.seed, i, len(m.calls))
	}
	return nil
}

// storeKey content-addresses a call, as kralld's store keys do.
func storeKey(c call) string { return c.endpoint + "/" + digest(c.body) }

// decodeAnswer decodes an answer into the endpoint's response type.
func decodeAnswer(endpoint string, body []byte) (any, error) {
	var v any
	switch endpoint {
	case "profile":
		v = new(service.ProfileResponse)
	case "machines":
		v = new(service.MachinesResponse)
	case "score":
		v = new(service.ScoreResponse)
	case "analyze":
		v = new(service.AnalyzeResponse)
	default:
		return nil, fmt.Errorf("no response type for %s", endpoint)
	}
	return v, json.Unmarshal(body, v)
}

func (m *hotMirror) request(i int) call { return m.calls[m.order[i]] }

func (m *hotMirror) op(tr *tracer, i int, _ *layerCounts) ([]byte, error) {
	c := m.calls[m.order[i]]
	var req service.Request
	tr.begin("service.decode")
	err := json.Unmarshal(c.body, &req)
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("runner.store")
	v, err := runner.Cached(m.store, storeKey(c), func() (any, error) { return nil, errNotWarm })
	tr.end()
	if err != nil {
		return nil, err
	}
	tr.begin("service.encode")
	out, err := encode(v)
	tr.end()
	return out, err
}

// uploadMirror mirrors the upload mix. An analyze request compiles the
// source and analyzes it as two store fills, as handleAnalyze does; a score
// request decodes the uploaded trace and scores it, bypassing the store.
type uploadMirror struct {
	seed   int64
	traces []uploadTrace
	bodies [][]byte
	store  *runner.Sharded
}

// traceLimits are kralld's default limits on uploaded traces.
var traceLimits = trace.Limits{MaxEvents: 5_000_000, MaxSites: 1 << 16, MaxBytes: 8 << 20}

func (m *uploadMirror) prepare(n int) error {
	m.store = runner.NewSharded(storeEntries, storeShards)
	m.bodies = make([][]byte, n)
	for i := range m.bodies {
		m.bodies[i] = m.request(i).body
	}
	return nil
}

func (m *uploadMirror) request(i int) call {
	if i%2 == 0 {
		req, _ := sourceRequest(m.seed, streamSource, i/2)
		return call{"analyze", mustJSON(req)}
	}
	return call{"score", m.traces[(i/2)%len(m.traces)].body}
}

func (m *uploadMirror) op(tr *tracer, i int, l *layerCounts) ([]byte, error) {
	var req service.Request
	tr.begin("service.decode")
	err := json.Unmarshal(m.bodies[i], &req)
	tr.end()
	if err != nil {
		return nil, err
	}
	if i%2 == 0 {
		return m.analyze(tr, req.Source, l)
	}
	return m.score(tr, req.TraceB64, m.traces[(i/2)%len(m.traces)], l)
}

// sourceProgram is a compiled source as kralld's store keeps it.
type sourceProgram struct {
	prog   *ir.Program
	nsites int
}

func (m *uploadMirror) analyze(tr *tracer, src string, l *layerCounts) ([]byte, error) {
	key := digest([]byte(src))
	tr.begin("runner.store")
	c, err := runner.Cached(m.store, "prog/"+key, func() (*sourceProgram, error) {
		tr.begin("lang.parse")
		file, err := lang.Parse(src)
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("lang.check")
		info, err := lang.Check(file)
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("lang.lower")
		prog, err := lang.Lower(file, info)
		if err == nil {
			prog.NumberBranches(true)
			err = prog.Validate()
		}
		if err == nil {
			// The interpreter's compile is free; kralld makes it here.
			_, err = exec.Interp.Compile(prog)
		}
		tr.end()
		if err != nil {
			return nil, err
		}
		tr.begin("predict.features")
		predict.Analyze(prog)
		tr.end()
		return &sourceProgram{prog, prog.NumberBranches(true)}, nil
	})
	tr.end()
	if err != nil {
		return nil, err
	}
	l.sourceBytes += len(src)
	tr.begin("runner.store")
	rep, err := runner.Cached(m.store, "staticrep/"+key, func() (*analysis.StaticReport, error) {
		tr.begin("analysis.static")
		defer tr.end()
		return analysis.BuildStaticReport(c.prog)
	})
	tr.end()
	if err != nil {
		return nil, err
	}
	l.sites += len(rep.Sites)
	l.decided += rep.Decided()
	tr.begin("service.encode")
	resp := &service.AnalyzeResponse{SchemaV: service.Schema, Kind: "analyze", Program: "source",
		NumSites: c.nsites, Decided: rep.Decided()}
	for _, sr := range rep.Sites {
		pred := "not_taken"
		if sr.Pred == ir.PredTaken {
			pred = "taken"
		}
		resp.Sites = append(resp.Sites, service.AnalyzeSite{
			Site: sr.Site, Func: sr.Func, Prob: round4(sr.Prob), Confidence: round4(sr.Confidence),
			LoopDepth: sr.LoopDepth, Fact: sr.Fact.String(), Heuristics: sr.Heuristics(), Pred: pred,
		})
	}
	out, err := encode(resp)
	tr.end()
	if err != nil {
		return nil, err
	}
	if len(rep.Sites) != c.nsites {
		return nil, fmt.Errorf("static report covers %d sites of %d", len(rep.Sites), c.nsites)
	}
	return out, nil
}

// round4 rounds as kralld does, to four decimals.
func round4(x float64) float64 { return math.Round(x*1e4) / 1e4 }

func (m *uploadMirror) score(tr *tracer, b64 string, want uploadTrace, l *layerCounts) ([]byte, error) {
	tr.begin("trace.read")
	raw, err := base64.StdEncoding.DecodeString(b64)
	var slab *trace.Slab
	if err == nil {
		slab, err = trace.ReadSlab(bytes.NewReader(raw), traceLimits)
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	l.traceBytes += len(b64)
	tr.begin("predict.score")
	var sites trace.MaxSite
	slab.ReplayInto(&sites)
	eval := predict.Eval{P: predict.NewTwoBit(sites.N)}
	slab.ReplayInto(&eval)
	tr.end()
	tr.begin("service.encode")
	out, err := encode(&service.ScoreResponse{SchemaV: service.Schema, Kind: "score", Strategy: "twobit",
		Source: "upload", NumSites: sites.N, Events: slab.Len(), Score: rateBlock(eval.Misses, eval.Total)})
	tr.end()
	if err != nil {
		return nil, err
	}
	return out, checkScore(out, want)
}

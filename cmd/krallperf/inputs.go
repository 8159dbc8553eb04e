package main

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/bench"
	"repro/internal/ir"
	"repro/internal/progen"
	"repro/internal/service"
	"repro/internal/trace"
)

// Every input is a pure function of the -seed flag: derive mixes the seed
// with a stream number (one per kind of input) and an index, so inputs of
// one kind never repeat and the streams never collide.
const (
	streamCold = iota + 1
	streamHotOrder
	streamHotSeed
	streamSource
	streamSourceWarm
	streamTrace
	streamCatalog
)

// derive returns a positive 63-bit value from (seed, stream, i) through
// splitmix64; zero is avoided because a zero wseed means "program default".
func derive(seed int64, stream, i uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xbf58476d1ce4e5b9 + i*0x94d049bb133111eb
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	v := int64(z >> 1)
	if v == 0 {
		v = 1
	}
	return v
}

// catalog returns the eight paper programs in a seeded order, so program
// mixes differ between seeds but stay balanced.
func catalog(seed int64) []string {
	ws := bench.Workloads()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	for i := len(names) - 1; i > 0; i-- {
		j := int(derive(seed, streamCatalog, uint64(i)) % int64(i+1))
		names[i], names[j] = names[j], names[i]
	}
	return names
}

func mustJSON(v any) []byte {
	buf, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled here
	}
	return buf
}

// sweepConfig is the sweep's experiment configuration: krallbench's
// defaults at a smaller branch budget (see README), or bench.QuickConfig
// at tiny scale, with the workload inputs drawn from the seed.
func sweepConfig(seed int64, tiny bool) bench.ExpConfig {
	cfg := bench.DefaultConfig()
	cfg.Budget = 500_000
	if tiny {
		cfg = bench.QuickConfig()
		cfg.Budget = 20_000
	}
	cfg.Seed = seed
	if cfg.CrossSeed == seed {
		cfg.CrossSeed++
	}
	cfg.Parallel = clients
	return cfg
}

// coldRequest is the i-th /v1/replicate request: a catalog program with a
// fresh dataset seed, so no request ever finds its trace in the store.
func coldRequest(seed int64, i int, budget uint64) service.Request {
	progs := catalog(seed)
	return service.Request{
		Workload: progs[i%len(progs)],
		Seed:     derive(seed, streamCold, uint64(i)),
		Budget:   budget,
		Check:    true,
	}
}

// call is one HTTP request: its endpoint and JSON body.
type call struct {
	endpoint string
	body     []byte
}

// hotCalls returns the serve-hot request set: profile, machines, score and
// analyze for every catalog program, with one seed-derived dataset per
// program.
func hotCalls(seed int64, budget uint64) []call {
	var out []call
	for i, prog := range catalog(seed) {
		ws := derive(seed, streamHotSeed, uint64(i))
		out = append(out,
			call{"profile", mustJSON(service.Request{Workload: prog, Seed: ws, Budget: budget})},
			call{"machines", mustJSON(service.Request{Workload: prog, Seed: ws, Budget: budget, States: 4})},
			call{"score", mustJSON(service.Request{Workload: prog, Seed: ws, Budget: budget, Strategy: "twobit"})},
			call{"analyze", mustJSON(service.Request{Workload: prog})},
		)
	}
	return out
}

// hotIndex is the call replayed as the i-th serve-hot request.
func hotIndex(seed int64, i, n int) int {
	return int(derive(seed, streamHotOrder, uint64(i)) % int64(n))
}

// sourceRequest is an /v1/analyze request on a freshly generated program.
func sourceRequest(seed int64, stream uint64, i int) (service.Request, string) {
	src := progen.Generate(derive(seed, stream, uint64(i)), progen.DefaultConfig())
	return service.Request{Source: src}, src
}

// uploadTrace is one pre-recorded trace for /v1/score, with the 2-bit
// misprediction count the benchmark folded itself while recording.
type uploadTrace struct {
	body         []byte
	events       uint64
	mispredicted uint64
}

// recordTraces records n traces of catalog programs at seed-derived
// datasets and wraps each in a twobit /v1/score request.
func recordTraces(seed int64, n int, budget uint64) ([]uploadTrace, error) {
	progs := catalog(seed)
	out := make([]uploadTrace, n)
	for k := range out {
		w, err := bench.ByName(progs[k%len(progs)])
		if err != nil {
			return nil, err
		}
		c, err := bench.Compile(w)
		if err != nil {
			return nil, err
		}
		slab, fold, err := record(c, derive(seed, streamTrace, uint64(k)), budget)
		if err != nil {
			return nil, err
		}
		var sb strings.Builder
		enc := base64.NewEncoder(base64.StdEncoding, &sb)
		if _, err := slab.WriteTo(enc); err != nil {
			return nil, err
		}
		if err := enc.Close(); err != nil {
			return nil, err
		}
		out[k] = uploadTrace{
			body:         mustJSON(service.Request{TraceB64: sb.String(), Strategy: "twobit"}),
			events:       fold.total,
			mispredicted: fold.misses,
		}
	}
	return out, nil
}

// twoBitFold is the benchmark's own 2-bit saturating counter scorer, the
// reference /v1/score answers are checked against: counters start weakly
// not-taken (1) and predict taken at 2 or more.
type twoBitFold struct {
	ctr           map[int32]uint8
	total, misses uint64
}

func (f *twoBitFold) branch(site int32, taken bool) {
	c, ok := f.ctr[site]
	if !ok {
		c = 1
	}
	if (c >= 2) != taken {
		f.misses++
	}
	f.total++
	switch {
	case taken && c < 3:
		c++
	case !taken && c > 0:
		c--
	}
	f.ctr[site] = c
}

// record runs the program on the interpreter until the branch budget,
// capturing the trace slab and, through the branch hook, folding every
// event into the reference scorer.
func record(c *bench.Compiled, wseed int64, budget uint64) (*trace.Slab, *twoBitFold, error) {
	slab := trace.NewSlab(int(budget))
	fold := &twoBitFold{ctr: map[int32]uint8{}}
	if _, err := runProgram(c.Prog, wseed, budget, slab, func(t *ir.Term, taken bool) { fold.branch(t.Site, taken) }); err != nil {
		return nil, nil, fmt.Errorf("recording %s: %w", c.Workload.Name, err)
	}
	slab.Seal()
	return slab, fold, nil
}

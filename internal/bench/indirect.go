package bench

import (
	"context"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/runner"
)

// The indirect experiment scores the second replication family — case
// clustering of hot switch dispatches — on three interpreter-style
// workloads whose inner loops are N-way dispatches, the branch shape the
// paper's semi-static machinery cannot reach.
//
// The table reports, per workload, the effective misses of core's cost
// model (conditional mispredictions plus executed dispatches) for the
// branch-annotated baseline against the clustered program, whose executed
// dispatches are the residual's only: taken chain tests never reach it.
// Both variants run to natural completion, so the miss counts are directly
// comparable. The workload is recorded once: the profile and the baseline
// come from the recording, and only the clustered program runs live. Each
// clustered program is re-verified structurally (indirect.Verify) and
// behaviourally (checksum, prints and main's return value) as part of the
// experiment.

// svmSrc is a stack-machine bytecode interpreter: the canonical indirect
// dispatch loop. The generated bytecode stream is dominated by push —
// as real interpreter opcode histograms are — giving the skew clustering
// wants.
const svmSrc = `
// svm: stack bytecode interpreter dispatch workload.

var wseed int = 77771;
var wscale int = 40;

var seed int;

func rand() int {
	seed = (seed * 1103515245 + 12345) & 1073741823;
	return seed;
}

var code [4096]int;
var ncode int;
var stack [256]int;
var acc int;

// Opcodes: 0 push, 1 add, 2 sub, 3 mul, 4 dup, 5 skip-if-odd, 6 emit.
func genCode() {
	ncode = 0;
	for var i int = 0; i < 900; i = i + 1 {
		var r int = rand() % 100;
		var op int = 0;
		if r >= 62 {
			op = 1;
		}
		if r >= 80 {
			op = 2;
		}
		if r >= 87 {
			op = 3;
		}
		if r >= 91 {
			op = 4;
		}
		if r >= 95 {
			op = 5;
		}
		if r >= 97 {
			op = 6;
		}
		code[ncode] = op;
		ncode = ncode + 1;
	}
}

func exec() int {
	var sp int = 0;
	var pc int = 0;
	while pc < ncode {
		var op int = code[pc];
		pc = pc + 1;
		switch op {
		case 0:
			stack[sp % 256] = pc + acc;
			sp = sp + 1;
		case 1:
			if sp > 1 {
				stack[(sp - 2) % 256] = stack[(sp - 2) % 256] + stack[(sp - 1) % 256];
				sp = sp - 1;
			}
		case 2:
			if sp > 1 {
				stack[(sp - 2) % 256] = stack[(sp - 2) % 256] - stack[(sp - 1) % 256];
				sp = sp - 1;
			}
		case 3:
			if sp > 1 {
				stack[(sp - 2) % 256] = stack[(sp - 2) % 256] * stack[(sp - 1) % 256];
				sp = sp - 1;
			}
		case 4:
			if sp > 0 {
				stack[sp % 256] = stack[(sp - 1) % 256];
				sp = sp + 1;
			}
		case 5:
			if sp > 0 {
				if stack[(sp - 1) % 256] % 2 != 0 {
					pc = pc + 1;
				}
			}
		default:
			if sp > 0 {
				acc = acc + stack[(sp - 1) % 256];
				sp = sp - 1;
			}
		}
	}
	return sp;
}

func main() int {
	seed = wseed;
	for var round int = 0; round < wscale; round = round + 1 {
		genCode();
		acc = acc + exec();
	}
	print(acc);
	return acc;
}`

// lexSrc is a scanner: per-character dispatch on a character class, with
// the identifier class dominating as in real source text.
const lexSrc = `
// lex: character-class scanner dispatch workload.

var wseed int = 55103;
var wscale int = 30;

var seed int;

func rand() int {
	seed = (seed * 1103515245 + 12345) & 1073741823;
	return seed;
}

// Classes: 0 letter, 1 space, 2 digit, 3 punct, 4 quote, 5 newline.
var text [8192]int;
var ntext int;
var idents int;
var numbers int;
var strs int;
var lines int;
var toks int;

func genText() {
	ntext = 0;
	for var i int = 0; i < 2000; i = i + 1 {
		var r int = rand() % 100;
		var c int = 0;
		if r >= 64 {
			c = 1;
		}
		if r >= 82 {
			c = 2;
		}
		if r >= 90 {
			c = 3;
		}
		if r >= 95 {
			c = 4;
		}
		if r >= 98 {
			c = 5;
		}
		text[ntext] = c;
		ntext = ntext + 1;
	}
}

func scan() {
	var inIdent int = 0;
	var inNum int = 0;
	for var i int = 0; i < ntext; i = i + 1 {
		switch text[i] {
		case 0:
			if inIdent == 0 {
				idents = idents + 1;
				inIdent = 1;
			}
			inNum = 0;
		case 1:
			inIdent = 0;
			inNum = 0;
		case 2:
			if inNum == 0 {
				if inIdent == 0 {
					numbers = numbers + 1;
					inNum = 1;
				}
			}
		case 3:
			toks = toks + 1;
			inIdent = 0;
			inNum = 0;
		case 4:
			strs = strs + 1;
			inIdent = 0;
			inNum = 0;
		default:
			lines = lines + 1;
			inIdent = 0;
			inNum = 0;
		}
	}
}

func main() int {
	seed = wseed;
	for var round int = 0; round < wscale; round = round + 1 {
		genText();
		scan();
	}
	var sum int = idents + numbers * 3 + strs * 5 + lines * 7 + toks * 11;
	print(sum);
	return sum;
}`

// autoSrc is a token-driven state automaton: the transition function
// dispatches on the current state, and the input statistics keep the
// automaton mostly in one hot state.
const autoSrc = `
// auto: state-automaton transition dispatch workload.

var wseed int = 31337;
var wscale int = 60;

var seed int;

func rand() int {
	seed = (seed * 1103515245 + 12345) & 1073741823;
	return seed;
}

var state int;
var visits [6]int;
var accepted int;

func feed(tok int) {
	switch state {
	case 0:
		if tok < 70 {
			state = 0;
		} else {
			if tok < 85 {
				state = 1;
			} else {
				state = 2;
			}
		}
	case 1:
		if tok < 40 {
			state = 0;
		} else {
			state = 3;
		}
	case 2:
		if tok % 3 == 0 {
			state = 4;
		} else {
			state = 0;
		}
	case 3:
		state = 0;
		accepted = accepted + 1;
	case 4:
		if tok < 50 {
			state = 5;
		} else {
			state = 0;
		}
	default:
		state = 0;
	}
	visits[state] = visits[state] + 1;
}

func main() int {
	seed = wseed;
	for var round int = 0; round < wscale; round = round + 1 {
		state = 0;
		for var i int = 0; i < 400; i = i + 1 {
			feed(rand() % 100);
		}
	}
	var sum int = accepted;
	for var s int = 0; s < 6; s = s + 1 {
		sum = sum + visits[s] * (s + 1);
	}
	print(sum);
	return sum;
}`

// IndirectWorkloads returns the dispatch-loop workloads of the indirect
// experiment. They are deliberately separate from the main catalog: the
// paper's tables cover two-way branches only, and mixing families would
// silently change every pinned table.
func IndirectWorkloads() []Workload {
	return []Workload{
		{"svm", svmSrc, "stack bytecode interpreter"},
		{"lex", lexSrc, "character-class scanner"},
		{"auto", autoSrc, "token state automaton"},
	}
}

// indirectScale derives the completion-run iteration override from the
// branch budget, so -quick and full runs scale together while both
// programs still run to natural completion (truncated runs of the original
// and the clustered program are not comparable: the fast-path tests add
// branch events).
func indirectScale(budget uint64) int64 {
	s := int64(budget / 25_000)
	if s < 4 {
		s = 4
	}
	if s > 400 {
		s = 400
	}
	return s
}

// indirectProfile profiles a dispatch workload on its completion cell:
// one recording folded into the profile, or one live run folding it in a
// ForceLive suite.
func (s *Suite) indirectProfile(c *Compiled, cell core.Cell) (*core.Profiled, error) {
	if s.Cfg.ForceLive {
		p, err := core.ProfileLive(context.Background(), c.Prog, cell)
		if err != nil {
			return nil, err
		}
		s.countLiveRun()
		return p, nil
	}
	p, err := core.Profile(context.Background(), c.Prog, cell)
	if err != nil {
		return nil, err
	}
	s.countRecord(int64(p.Rec.Slab.Len()))
	s.countReplay(int64(p.Rec.Slab.Len()))
	return p, nil
}

// indirectRun measures one program of the experiment live on its
// completion cell.
func (s *Suite) indirectRun(prog *ir.Program, cell core.Cell) (core.Measurement, error) {
	m, err := core.Measure(context.Background(), prog, cell, nil)
	if err != nil {
		return core.Measurement{}, err
	}
	s.countLiveRun()
	return m, nil
}

// IndirectTable runs the indirect-family experiment: per workload, the
// effective misprediction rate (core's cost model) of the branch-annotated
// baseline versus the clustered program, the miss reduction, the code
// growth, and the verification verdict. One parallel job per workload.
func (s *Suite) IndirectTable() (*Table, error) {
	t := &Table{
		ID:    "indirect",
		Title: "Indirect dispatch: switch clustering vs annotated baseline (measured)",
	}
	cell := core.Cell{Seed: s.Cfg.Seed, Scale: indirectScale(s.Cfg.Budget)}
	type col struct {
		events, resid, base, clus, redu, size, tests, verified Cell
	}
	ws := IndirectWorkloads()
	cols, err := runner.Map(s.eng, ws, func(_ int, w Workload) (col, error) {
		var c col
		comp, err := Compile(w)
		if err != nil {
			return col{}, err
		}
		p, err := s.indirectProfile(comp, cell)
		if err != nil {
			return col{}, err
		}
		cl, err := p.Cluster(true)
		if err != nil {
			return col{}, err
		}
		// The annotated baseline follows the profiled run's path, so the
		// recording measures it; a ForceLive suite runs it.
		br := p.Baseline(p.Preds())
		if s.Cfg.ForceLive {
			if br, err = s.indirectRun(cl.Baseline, cell); err != nil {
				return col{}, err
			}
		}
		cr, err := s.indirectRun(cl.Clustered, cell)
		if err != nil {
			return col{}, err
		}
		c.events = countCell(br.Dispatches)
		c.base = rateCell(br.Effective())
		c.resid = countCell(cr.Dispatches)
		c.clus = rateCell(cr.Effective())
		if bm, _ := br.Effective(); bm > 0 {
			c.redu = Cell{Value: cr.MissReduction(br), Valid: true}
		}
		c.size = Cell{Value: cl.Stats.SizeFactor(), Valid: true}
		c.tests = countCell(uint64(cl.Stats.Tests))

		// Verified: the structural re-derivation accepts the transform and
		// the completion-run behaviour is unchanged.
		ok := len(cl.Diags) == 0 &&
			cr.Checksum == br.Checksum && cr.Prints == br.Prints && cr.Ret == br.Ret
		v := uint64(0)
		if ok {
			v = 1
		}
		c.verified = countCell(v)
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		t.Cols = append(t.Cols, w.Name)
	}
	rows := []struct {
		name string
		get  func(c col) Cell
	}{
		{"dispatch transfers", func(c col) Cell { return c.events }},
		{"residual transfers", func(c col) Cell { return c.resid }},
		{"baseline effective miss (%)", func(c col) Cell { return c.base }},
		{"clustered effective miss (%)", func(c col) Cell { return c.clus }},
		{"miss reduction (%)", func(c col) Cell { return c.redu }},
		{"size factor", func(c col) Cell { return c.size }},
		{"tests inserted", func(c col) Cell { return c.tests }},
		{"verified", func(c col) Cell { return c.verified }},
	}
	for _, r := range rows {
		row := Row{Name: r.name}
		for _, c := range cols {
			row.Cells = append(row.Cells, r.get(c))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

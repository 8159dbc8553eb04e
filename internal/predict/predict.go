// Package predict implements every branch prediction strategy the paper
// evaluates (section 2 and Table 1): Smith's static heuristics and the
// Ball–Larus heuristic chain, the dynamic last-direction / 2-bit-counter /
// two-level-adaptive predictors, and the semi-static profile, loop, and
// correlation strategies, together with the evaluation engine that scores
// them over a branch trace.
package predict

import (
	"fmt"

	"repro/internal/trace"
)

// Predictor is a dynamic branch predictor simulated over the trace: Predict
// is consulted before each branch, Update is told the real outcome
// afterwards. Predictors are addressed by bare branch site ID, so they can
// be driven from a live interpreter hook or from a replayed trace alike.
type Predictor interface {
	// Name identifies the strategy in result tables.
	Name() string
	// Predict returns the predicted direction for the branch site.
	Predict(site int32) bool
	// Update trains the predictor with the actual outcome.
	Update(site int32, taken bool)
	// Reset restores the initial state.
	Reset()
}

// Eval runs a dynamic predictor as a trace.Collector and accumulates its
// misprediction counts.
type Eval struct {
	P      Predictor
	Misses uint64
	Total  uint64
}

var _ trace.Collector = (*Eval)(nil)

// RecordBranch implements trace.Collector.
func (e *Eval) RecordBranch(site int32, taken bool) {
	if e.P.Predict(site) != taken {
		e.Misses++
	}
	e.Total++
	e.P.Update(site, taken)
}

// Rate is the misprediction rate in percent.
func (e *Eval) Rate() float64 { return pct(e.Misses, e.Total) }

func pct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// LastDirection predicts that a branch repeats its previous outcome
// (Smith's strategy 1). Unseen branches predict not-taken.
type LastDirection struct {
	last []bool
	seen []bool
}

// NewLastDirection sizes the predictor for nSites branch sites.
func NewLastDirection(nSites int) *LastDirection {
	return &LastDirection{last: make([]bool, nSites), seen: make([]bool, nSites)}
}

func (p *LastDirection) Name() string { return "last direction" }

func (p *LastDirection) Predict(site int32) bool { return p.last[site] }

func (p *LastDirection) Update(site int32, taken bool) {
	p.last[site] = taken
	p.seen[site] = true
}

func (p *LastDirection) Reset() {
	for i := range p.last {
		p.last[i] = false
		p.seen[i] = false
	}
}

// TwoBit keeps a saturating two-bit counter per branch (Smith's strategy 2):
// values 2 and 3 predict taken; taken increments, not-taken decrements.
// Counters start at weakly-not-taken (1).
type TwoBit struct {
	ctr []uint8
}

// NewTwoBit sizes the predictor for nSites branch sites.
func NewTwoBit(nSites int) *TwoBit {
	p := &TwoBit{ctr: make([]uint8, nSites)}
	p.Reset()
	return p
}

func (p *TwoBit) Name() string { return "2 bit counter" }

func (p *TwoBit) Predict(site int32) bool { return p.ctr[site] >= 2 }

func (p *TwoBit) Update(site int32, taken bool) {
	c := p.ctr[site]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.ctr[site] = c
}

func (p *TwoBit) Reset() {
	for i := range p.ctr {
		p.ctr[i] = 1
	}
}

// Scope selects how a two-level predictor's first or second level is
// shared, covering the nine [YN93] combinations (GA*, SA*, PA* crossed with
// *g, *s, *p).
type Scope uint8

const (
	// ScopeGlobal uses one shared structure.
	ScopeGlobal Scope = iota
	// ScopeSet hashes branches into a fixed number of sets.
	ScopeSet
	// ScopePerBranch gives every branch (modulo table capacity) its own
	// structure.
	ScopePerBranch
)

func (s Scope) String() string {
	switch s {
	case ScopeGlobal:
		return "global"
	case ScopeSet:
		return "set"
	case ScopePerBranch:
		return "per-branch"
	}
	return fmt.Sprintf("scope(%d)", uint8(s))
}

// TwoLevelConfig describes a two-level adaptive predictor [YN92, YN93]:
// first-level history registers of HistBits bits, second-level pattern
// tables of two-bit counters indexed by the history value.
type TwoLevelConfig struct {
	// HistScope selects global / set / per-branch history registers.
	HistScope Scope
	// HistEntries is the number of history registers for ScopeSet and
	// ScopePerBranch (branches are hashed modulo this; aliasing is the
	// hardware cost the paper's semi-static scheme avoids).
	HistEntries int
	// HistBits is the history register length (the paper uses 9).
	HistBits int
	// PatScope selects global / set / per-branch pattern tables.
	PatScope Scope
	// PatEntries is the number of pattern tables for ScopeSet/ScopePerBranch.
	PatEntries int
}

// PaperTwoLevel is the configuration read from the paper's Table 1 row
// "two level 4K bit": 1K per-branch 9-bit history registers with a shared
// pattern table (a PAg predictor; OCR note b in DESIGN.md).
func PaperTwoLevel() TwoLevelConfig {
	return TwoLevelConfig{
		HistScope:   ScopePerBranch,
		HistEntries: 1024,
		HistBits:    9,
		PatScope:    ScopeGlobal,
	}
}

// TwoLevel is a two-level adaptive predictor.
type TwoLevel struct {
	cfg  TwoLevelConfig
	hist []uint32
	// pats[tableIndex][historyValue] is a 2-bit counter.
	pats [][]uint8
	mask uint32
}

// NewTwoLevel builds the predictor; invalid configurations panic since they
// are programming errors in experiment setup.
func NewTwoLevel(cfg TwoLevelConfig) *TwoLevel {
	if cfg.HistBits < 1 || cfg.HistBits > 20 {
		panic(fmt.Sprintf("predict: history bits %d out of range", cfg.HistBits))
	}
	nHist := 1
	if cfg.HistScope != ScopeGlobal {
		if cfg.HistEntries < 1 {
			panic("predict: HistEntries required for non-global history")
		}
		nHist = cfg.HistEntries
	}
	nPat := 1
	if cfg.PatScope != ScopeGlobal {
		if cfg.PatEntries < 1 {
			panic("predict: PatEntries required for non-global pattern tables")
		}
		nPat = cfg.PatEntries
	}
	p := &TwoLevel{
		cfg:  cfg,
		hist: make([]uint32, nHist),
		pats: make([][]uint8, nPat),
		mask: (1 << uint(cfg.HistBits)) - 1,
	}
	for i := range p.pats {
		p.pats[i] = make([]uint8, 1<<uint(cfg.HistBits))
		for j := range p.pats[i] {
			p.pats[i][j] = 1
		}
	}
	return p
}

func (p *TwoLevel) Name() string {
	return fmt.Sprintf("two level %v/%v %d-bit", p.cfg.HistScope, p.cfg.PatScope, p.cfg.HistBits)
}

func (p *TwoLevel) histIdx(site int32) int {
	if p.cfg.HistScope == ScopeGlobal {
		return 0
	}
	return int(uint32(site) % uint32(len(p.hist)))
}

func (p *TwoLevel) patIdx(site int32) int {
	if p.cfg.PatScope == ScopeGlobal {
		return 0
	}
	return int(uint32(site) % uint32(len(p.pats)))
}

func (p *TwoLevel) Predict(site int32) bool {
	h := p.hist[p.histIdx(site)]
	return p.pats[p.patIdx(site)][h] >= 2
}

func (p *TwoLevel) Update(site int32, taken bool) {
	hi := p.histIdx(site)
	h := p.hist[hi]
	tab := p.pats[p.patIdx(site)]
	c := tab[h]
	if taken {
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	tab[h] = c
	var bit uint32
	if taken {
		bit = 1
	}
	p.hist[hi] = (h<<1 | bit) & p.mask
}

func (p *TwoLevel) Reset() {
	for i := range p.hist {
		p.hist[i] = 0
	}
	for _, tab := range p.pats {
		for j := range tab {
			tab[j] = 1
		}
	}
}

// GShare is the classic global-history predictor that XORs the history with
// the branch address before indexing a shared counter table. It postdates
// the paper and is included as an extension baseline.
type GShare struct {
	bits uint
	ghr  uint32
	tab  []uint8
}

// NewGShare builds a gshare predictor with 2^bits counters.
func NewGShare(bits int) *GShare {
	if bits < 1 || bits > 24 {
		panic(fmt.Sprintf("predict: gshare bits %d out of range", bits))
	}
	p := &GShare{bits: uint(bits), tab: make([]uint8, 1<<uint(bits))}
	p.Reset()
	return p
}

func (p *GShare) Name() string { return fmt.Sprintf("gshare %d-bit", p.bits) }

func (p *GShare) idx(site int32) uint32 {
	return (p.ghr ^ uint32(site)) & (uint32(len(p.tab)) - 1)
}

func (p *GShare) Predict(site int32) bool { return p.tab[p.idx(site)] >= 2 }

func (p *GShare) Update(site int32, taken bool) {
	i := p.idx(site)
	c := p.tab[i]
	var bit uint32
	if taken {
		bit = 1
		if c < 3 {
			c++
		}
	} else if c > 0 {
		c--
	}
	p.tab[i] = c
	p.ghr = p.ghr<<1 | bit
}

func (p *GShare) Reset() {
	p.ghr = 0
	for i := range p.tab {
		p.tab[i] = 1
	}
}

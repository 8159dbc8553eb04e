package statemachine

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// JointMachine realises the paper's §6 future-work idea: when several
// branches of one loop are replicated, sequential application multiplies
// their state counts; a single machine over all the branches can represent
// the same predictions with fewer states. This implementation builds the
// product of the per-branch machines, then minimises it with Moore
// partition refinement (states with identical prediction vectors and
// equivalent successors merge) and prunes unreachable states. The product
// shrinks whenever a component carries redundant states — common when the
// machine search returns catch-all states that behave identically — or
// when transitions make parts of the product unreachable. (The paper
// proposes a branch-and-bound search for the true optimum; product +
// minimisation is the sound polynomial substitute. The complementary §6
// idea, predicting all loop branches from one shared history, corresponds
// to the correlated path machines, which already key on the interleaved
// branch stream.)
type JointMachine struct {
	// Branches lists the original branch sites, in the order used by
	// Predict and Next.
	Branches []int32
	// NumStates is the minimised state count.
	States int
	// Init is the initial state.
	Init int
	// preds[state][branchIdx] is the prediction of that branch in that
	// state; delta[state][branchIdx][outcome] the transition.
	preds [][]bool
	delta [][][2]int
}

// jointComponent is one branch's machine, tabulated: preds[state] is its
// prediction and next[state][outcome] its transition.
type jointComponent struct {
	init  int
	preds []bool
	next  [][2]int
}

// componentOf tabulates the two loop-replicable machine kinds.
func componentOf(c *Choice) (jointComponent, bool) {
	switch c.Kind {
	case KindLoop:
		m := c.Loop
		return jointComponent{init: m.Init, preds: m.PredTaken, next: m.delta()}, true
	case KindExit:
		m := c.Exit
		next := make([][2]int, m.NumStates())
		for s := range next {
			next[s] = [2]int{m.Next(s, false), m.Next(s, true)}
		}
		return jointComponent{init: 0, preds: m.PredTaken, next: next}, true
	}
	return jointComponent{}, false
}

// BuildJoint combines the loop/exit machine choices of branches that share
// one loop into a single minimised machine. Choices of other kinds are
// rejected. At least one choice is required.
func BuildJoint(choices []*Choice) (*JointMachine, error) {
	if len(choices) == 0 {
		return nil, fmt.Errorf("statemachine: joint machine needs at least one branch")
	}
	comps := make([]jointComponent, len(choices))
	sites := make([]int32, len(choices))
	for i, c := range choices {
		comp, ok := componentOf(c)
		if !ok {
			return nil, fmt.Errorf("statemachine: branch %d has %v machine; joint machines combine loop/exit only", c.Site, c.Kind)
		}
		comps[i] = comp
		sites[i] = c.Site
	}
	// Product states are mixed-radix numbers, the first component most
	// significant: state s holds component i in digit (s / stride[i]) %
	// n_i, so moving component i from q to q' moves s by (q'−q)·stride[i].
	k := len(comps)
	stride := make([]int, k)
	total := 1
	for i := k - 1; i >= 0; i-- {
		stride[i] = total
		total *= len(comps[i].preds)
		if total > 1<<20 {
			return nil, fmt.Errorf("statemachine: product machine too large (>%d states)", 1<<20)
		}
	}
	predRows := make([]bool, total*k)
	deltaRows := make([][2]int, total*k)
	preds := make([][]bool, total)
	delta := make([][][2]int, total)
	digit := make([]int, k) // s's digits, advanced like an odometer
	for s := 0; s < total; s++ {
		pr := predRows[s*k : (s+1)*k : (s+1)*k]
		dr := deltaRows[s*k : (s+1)*k : (s+1)*k]
		for i, c := range comps {
			q := digit[i]
			pr[i] = c.preds[q]
			base := s - q*stride[i]
			dr[i] = [2]int{base + c.next[q][0]*stride[i], base + c.next[q][1]*stride[i]}
		}
		preds[s], delta[s] = pr, dr
		for i := k - 1; i >= 0; i-- {
			if digit[i]++; digit[i] < len(comps[i].preds) {
				break
			}
			digit[i] = 0
		}
	}
	init := 0
	for i, c := range comps {
		init += c.init * stride[i]
	}
	jm := &JointMachine{
		Branches: sites,
		States:   total,
		Init:     init,
		preds:    preds,
		delta:    delta,
	}
	jm.minimize()
	jm.trimUnreachable()
	return jm, nil
}

// Predict returns the prediction for branch index bi in the given state.
func (jm *JointMachine) Predict(state, bi int) bool { return jm.preds[state][bi] }

// Next is the transition when branch index bi resolves with the outcome.
func (jm *JointMachine) Next(state, bi int, taken bool) int {
	d := 0
	if taken {
		d = 1
	}
	return jm.delta[state][bi][d]
}

// minimize merges Moore-equivalent states by partition refinement. A
// state's signature is its class followed by the classes of its successors,
// written as varints into one reused buffer; class IDs are numbered in
// order of first appearance, so the partition fixes them and refinement
// stops when a round adds no class.
func (jm *JointMachine) minimize() {
	n := jm.States
	class := make([]int, n)
	next := make([]int, n)
	ids := map[string]int{}
	var key []byte
	// Initial partition: by prediction vector.
	for s := 0; s < n; s++ {
		key = key[:0]
		for _, p := range jm.preds[s] {
			if p {
				key = append(key, 1)
			} else {
				key = append(key, 0)
			}
		}
		class[s] = classID(ids, key)
	}
	for classes := len(ids); ; classes = len(ids) {
		clear(ids)
		for s := 0; s < n; s++ {
			key = binary.AppendUvarint(key[:0], uint64(class[s]))
			for _, d := range jm.delta[s] {
				key = binary.AppendUvarint(key, uint64(class[d[0]]))
				key = binary.AppendUvarint(key, uint64(class[d[1]]))
			}
			next[s] = classID(ids, key)
		}
		class, next = next, class
		if len(ids) == classes {
			break
		}
	}
	// Rebuild over classes.
	nc := len(ids)
	rep := make([]int, nc)
	for i := range rep {
		rep[i] = -1
	}
	for s := 0; s < n; s++ {
		if rep[class[s]] == -1 {
			rep[class[s]] = s
		}
	}
	preds := make([][]bool, nc)
	delta := make([][][2]int, nc)
	for cidx, s := range rep {
		preds[cidx] = jm.preds[s]
		delta[cidx] = make([][2]int, len(jm.preds[s]))
		for bi := range delta[cidx] {
			delta[cidx][bi][0] = class[jm.delta[s][bi][0]]
			delta[cidx][bi][1] = class[jm.delta[s][bi][1]]
		}
	}
	jm.preds = preds
	jm.delta = delta
	jm.Init = class[jm.Init]
	jm.States = nc
}

// classID returns the class numbered for signature key, numbering a new
// signature after every class seen so far.
func classID(ids map[string]int, key []byte) int {
	if id, ok := ids[string(key)]; ok {
		return id
	}
	id := len(ids)
	ids[string(key)] = id
	return id
}

// trimUnreachable drops states the initial state can never reach.
func (jm *JointMachine) trimUnreachable() {
	seen := make([]bool, jm.States)
	stack := []int{jm.Init}
	seen[jm.Init] = true
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for bi := range jm.delta[s] {
			for d := 0; d < 2; d++ {
				t := jm.delta[s][bi][d]
				if !seen[t] {
					seen[t] = true
					stack = append(stack, t)
				}
			}
		}
	}
	var order []int
	for s := 0; s < jm.States; s++ {
		if seen[s] {
			order = append(order, s)
		}
	}
	if len(order) == jm.States {
		return
	}
	sort.Ints(order)
	remap := make([]int, jm.States)
	for i, s := range order {
		remap[s] = i
	}
	preds := make([][]bool, len(order))
	delta := make([][][2]int, len(order))
	for i, s := range order {
		preds[i] = jm.preds[s]
		delta[i] = make([][2]int, len(jm.preds[s]))
		for bi := range delta[i] {
			delta[i][bi][0] = remap[jm.delta[s][bi][0]]
			delta[i][bi][1] = remap[jm.delta[s][bi][1]]
		}
	}
	jm.preds = preds
	jm.delta = delta
	jm.Init = remap[jm.Init]
	jm.States = len(order)
}

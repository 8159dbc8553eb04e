package statemachine

import "repro/internal/profile"

// replay scores loop machines by exact automaton replay of one branch's
// outcome stream (DESIGN.md §5), stepping every candidate through the
// stream in one shared pass. Select keeps one replay for all its sites so
// the buffers are reused.
//
// load decodes the stream once into capped runs: a run of n outcomes o
// keeps min(n, maxLen) of them and adds the other n − maxLen to excess[o].
// That is exact: from any state, maxLen outcomes o lead a machine whose
// patterns are at most maxLen long to its fixed point F_o, the longest
// all-o state (after j outcomes o a state's label ends in o^min(j, len)),
// so every outcome past maxLen counts against F_o whatever the machine
// did before the run.
type replay struct {
	maxLen int
	// runs holds one code per run: (min(n, maxLen)−1)<<1 | o.
	runs   []byte
	excess [2]uint64
	// Candidate i's state s is row base_i+s; the row's entries start at
	// row·2·maxLen and are indexed by run code. end[e] is the entry offset
	// of the row the run leads to, acc[e] counts the runs that started
	// there. acc is all zero between calls to score.
	end []int32
	acc []uint64
	// cur holds each chain's starting row offset.
	cur    []int32
	counts []profile.Pair
}

// load decodes st into capped runs for machines whose patterns are at
// most maxLen long.
func (r *replay) load(st *profile.Stream, maxLen int) {
	r.maxLen = maxLen
	r.runs = r.runs[:0]
	r.excess = [2]uint64{}
	st.Runs(func(taken bool, n int) {
		o := 0
		if taken {
			o = 1
		}
		if n > maxLen {
			r.excess[o] += uint64(n - maxLen)
			n = maxLen
		}
		r.runs = append(r.runs, byte((n-1)<<1|o))
	})
}

// score replays the loaded runs through every machine at once and sets
// each one's PredTaken, Hits and Total from the counts its states see.
// No machine may have a pattern longer than the maxLen given to load.
func (r *replay) score(ms []*LoopMachine) {
	w := 2 * r.maxLen
	// One more row than the machines need: the sink, which every run
	// leaves in place, pads the last group of four chains.
	rows := 1
	for _, m := range ms {
		rows += len(m.States)
	}
	if cap(r.end) < rows*w {
		r.end = make([]int32, rows*w)
		r.acc = make([]uint64, rows*w)
	}
	end, acc := r.end[:rows*w], r.acc[:rows*w]
	sink := (rows - 1) * w
	for e := sink; e < rows*w; e++ {
		end[e] = int32(sink)
	}
	r.cur = r.cur[:0]
	base := 0
	for _, m := range ms {
		jumps(end, m, base, w)
		r.cur = append(r.cur, int32((base+m.Init)*w))
		base += len(m.States)
	}
	for len(r.cur)%4 != 0 {
		r.cur = append(r.cur, int32(sink))
	}

	// Four candidates step through the runs together: their state chains
	// are independent, so each run's four lookups overlap instead of
	// waiting on one another.
	for i := 0; i < len(r.cur); i += 4 {
		s0, s1, s2, s3 := int(r.cur[i]), int(r.cur[i+1]), int(r.cur[i+2]), int(r.cur[i+3])
		for _, c := range r.runs {
			c := int(c)
			acc[s0+c]++
			acc[s1+c]++
			acc[s2+c]++
			acc[s3+c]++
			s0, s1, s2, s3 = int(end[s0+c]), int(end[s1+c]), int(end[s2+c]), int(end[s3+c])
		}
	}
	clear(acc[sink:])

	base = 0
	for _, m := range ms {
		r.tally(end, acc, m, base, w)
		base += len(m.States)
	}
}

// jumps fills m's rows of end, which start at row base: the entry for
// state s and code (l−1)<<1|o is the row that l outcomes o lead to.
func jumps(end []int32, m *LoopMachine, base, w int) {
	for s := range m.States {
		row := (base + s) * w
		end[row] = int32((base + m.Next(s, false)) * w)
		end[row+1] = int32((base + m.Next(s, true)) * w)
	}
	for s := range m.States {
		row := (base + s) * w
		for e := row + 2; e < row+w; e++ {
			// One more outcome o from where one fewer led.
			end[e] = end[int(end[e-2])+e&1]
		}
	}
}

// tally expands m's run counts into per-state outcome counts, zeroing its
// rows of acc. A run of length l from state s scores its first outcome at
// s and leaves a run of length l−1 from the next state, so the counts are
// pushed down one length at a time, longest first.
func (r *replay) tally(end []int32, acc []uint64, m *LoopMachine, base, w int) {
	n := len(m.States)
	if cap(r.counts) < n {
		r.counts = make([]profile.Pair, n)
	}
	counts := r.counts[:n]
	clear(counts)
	for code := w - 1; code >= 0; code-- {
		o := code & 1
		for s := range n {
			e := (base+s)*w + code
			a := acc[e]
			if a == 0 {
				continue
			}
			acc[e] = 0
			if o == 1 {
				counts[s].Taken += a
			} else {
				counts[s].NotTaken += a
			}
			if code > 1 {
				acc[int(end[(base+s)*w+o])+code-2] += a
			}
		}
	}
	for o, x := range r.excess {
		if x == 0 {
			continue
		}
		// maxLen outcomes o lead any state to F_o.
		f := int(end[(base+m.Init)*w+w-2+o])/w - base
		if o == 1 {
			counts[f].Taken += x
		} else {
			counts[f].NotTaken += x
		}
	}
	m.Hits, m.Total = 0, 0
	for i, c := range counts {
		m.PredTaken[i] = c.MajorityTaken()
		m.Hits += c.Hits()
		m.Total += c.Total()
	}
}

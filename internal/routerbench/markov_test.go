package routerbench

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"vix/internal/alloc"
)

// The testbench's rules — every VC backlogged, a head keeps its output
// until granted, a granted VC redraws its output uniformly — make a small
// router a finite Markov chain whose stationary efficiency and per-VC
// grant rates are exact. A chain is built by breadth-first search from one
// start state: next emits a state's successors with their probabilities
// and returns the input VCs (port·VCs + VC) the state grants.

// chain is a finite Markov chain in compressed sparse rows: state s
// moves to to[i] with probability p[i] for i in start[s]..start[s+1], and
// grants input VCs vcs[vcStart[s]:vcStart[s+1]] in the cycle that leaves
// it. A chain whose states do not name VCs (the ideal one: its VCs are
// exchangeable) records only the grant count, as that many entries of -1.
type chain struct {
	start   []int
	to      []int32
	p       []float64
	vcStart []int
	vcs     []int8
}

func (c *chain) states() int { return len(c.vcStart) - 1 }

func buildChain(start uint64, next func(s uint64, emit func(t uint64, p float64)) (granted []int)) *chain {
	c := &chain{start: []int{0}, vcStart: []int{0}}
	index := map[uint64]int32{start: 0}
	queue := []uint64{start}
	for i := 0; i < len(queue); i++ {
		at := map[int32]int{} // successor -> its entry in to
		granted := next(queue[i], func(t uint64, p float64) {
			id, ok := index[t]
			if !ok {
				id = int32(len(queue))
				index[t] = id
				queue = append(queue, t)
			}
			j, ok := at[id]
			if !ok {
				j = len(c.to)
				at[id] = j
				c.to, c.p = append(c.to, id), append(c.p, 0)
			}
			c.p[j] += p
		})
		c.start = append(c.start, len(c.to))
		for _, v := range granted {
			c.vcs = append(c.vcs, int8(v))
		}
		c.vcStart = append(c.vcStart, len(c.vcs))
	}
	return c
}

// solve runs power iteration to the stationary distribution and returns
// the expected flits per cycle over radix, and each of the ivcs input
// VCs' expected grants per cycle; an unnamed grant counts 1/ivcs to every
// VC.
func (c *chain) solve(radix, ivcs int) (efficiency float64, perVC []float64) {
	n := c.states()
	pi, next := make([]float64, n), make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for diff := 1.0; diff > 1e-12; {
		clear(next)
		for s, ps := range pi {
			for i := c.start[s]; i < c.start[s+1]; i++ {
				next[c.to[i]] += ps * c.p[i]
			}
		}
		diff = 0
		for i := range pi {
			diff += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
	}
	perVC = make([]float64, ivcs)
	for s, p := range pi {
		for _, v := range c.vcs[c.vcStart[s]:c.vcStart[s+1]] {
			efficiency += p
			if v < 0 {
				for i := range perVC {
					perVC[i] += p / float64(ivcs)
				}
				continue
			}
			perVC[v] += p
		}
	}
	return efficiency / float64(radix), perVC
}

// redraws calls visit with every way n granted VCs redraw their outputs
// over radix outputs (d[i] is the i-th VC's new output), each with
// probability radix^-n. d is reused between calls.
func redraws(n, radix int, visit func(d []int)) {
	d := make([]int, n)
	var fill func(i int)
	fill = func(i int) {
		if i == n {
			visit(d)
			return
		}
		for o := 0; o < radix; o++ {
			d[i] = o
			fill(i + 1)
		}
	}
	fill(0)
}

// binomial returns n choose k.
func binomial(n, k int) float64 {
	b := 1.0
	for i := 1; i <= k; i++ {
		b = b * float64(n-k+i) / float64(i)
	}
	return b
}

// idealChain is the ideal allocator (k = VCs): every output with a
// request moves a flit. VCs are exchangeable, and so are outputs, so the
// state is how the radix·vcs requests split over the outputs, sorted:
// each occupied output loses one request, redrawn uniformly.
func idealChain(radix, vcs int) *chain {
	const bitsPer = 6 // counts up to radix·vcs ≤ 63
	decode := func(s uint64) []int {
		counts := make([]int, radix)
		for o := range counts {
			counts[o] = int(s>>(bitsPer*o)) & (1<<bitsPer - 1)
		}
		return counts
	}
	encode := func(counts []int) uint64 {
		var buf [8]int
		sorted := buf[:copy(buf[:], counts)]
		slices.Sort(sorted)
		var s uint64
		for o, c := range sorted {
			s |= uint64(c) << (bitsPer * o)
		}
		return s
	}
	start := make([]int, radix)
	start[0] = radix * vcs
	return buildChain(encode(start), func(s uint64, emit func(uint64, float64)) []int {
		counts := decode(s)
		granted := 0
		for o := range counts {
			if counts[o] > 0 {
				counts[o]--
				granted++
			}
		}
		// The granted requests land on the outputs multinomially: output
		// o takes n of the left ones with probability C(left, n)·radix^-n.
		next := make([]int, radix)
		var land func(o, left int, p float64)
		land = func(o, left int, p float64) {
			if o == radix-1 {
				next[o] = counts[o] + left
				emit(encode(next), p*math.Pow(float64(radix), -float64(left)))
				return
			}
			for n := 0; n <= left; n++ {
				next[o] = counts[o] + n
				land(o+1, left-n, p*binomial(left, n)*math.Pow(float64(radix), -float64(n)))
			}
		}
		land(0, granted, 1)
		return slices.Repeat([]int{-1}, granted)
	})
}

// ifChain is the separable input-first allocator restated from its
// specification, at a radix small enough to name every VC: the state is
// each VC's output plus every input- and output-arbiter pointer. Row r
// serves port r/k's sub-group r%k of contiguous VCs. Every VC requests,
// so a row's input arbiter picks the slot at its pointer; each output's
// arbiter picks the first requesting row at or after its pointer. On a
// grant both pointers move past the winner (iSLIP), and the granted VC
// redraws its output.
func ifChain(radix, vcs, k int) *chain {
	rows, group := radix*k, vcs/k
	type state struct{ out, inPtr, outPtr []int }
	// Mixed-radix code: VC outputs, then input pointers, then output
	// pointers.
	encode := func(st state) uint64 {
		var s uint64
		for _, o := range st.out {
			s = s*uint64(radix) + uint64(o)
		}
		for _, p := range st.inPtr {
			s = s*uint64(group) + uint64(p)
		}
		for _, p := range st.outPtr {
			s = s*uint64(rows) + uint64(p)
		}
		return s
	}
	decode := func(s uint64) state {
		st := state{make([]int, radix*vcs), make([]int, rows), make([]int, radix)}
		for i := len(st.outPtr) - 1; i >= 0; i-- {
			st.outPtr[i], s = int(s%uint64(rows)), s/uint64(rows)
		}
		for i := len(st.inPtr) - 1; i >= 0; i-- {
			st.inPtr[i], s = int(s%uint64(group)), s/uint64(group)
		}
		for i := len(st.out) - 1; i >= 0; i-- {
			st.out[i], s = int(s%uint64(radix)), s/uint64(radix)
		}
		return st
	}
	zero := state{make([]int, radix*vcs), make([]int, rows), make([]int, radix)}
	return buildChain(encode(zero), func(s uint64, emit func(uint64, float64)) []int {
		st := decode(s)
		// cand[r] is the VC row r's input arbiter offers.
		cand := make([]int, rows)
		for r := range cand {
			cand[r] = (r/k)*vcs + (r%k)*group + st.inPtr[r]
		}
		var granted []int
		for o := 0; o < radix; o++ {
			for i := 0; i < rows; i++ {
				r := (st.outPtr[o] + i) % rows
				if st.out[cand[r]] == o {
					granted = append(granted, cand[r])
					st.outPtr[o] = (r + 1) % rows
					st.inPtr[r] = (st.inPtr[r] + 1) % group
					break
				}
			}
		}
		p := math.Pow(float64(radix), -float64(len(granted)))
		redraws(len(granted), radix, func(d []int) {
			for i, v := range granted {
				st.out[v] = d[i]
			}
			emit(encode(st), p)
		})
		return granted
	})
}

// unpack splits s into its mixed-radix digits over base, most
// significant first; pack is its inverse.
func unpack(s uint64, base []uint64) []int {
	st := make([]int, len(base))
	for i := len(st) - 1; i >= 0; i-- {
		st[i], s = int(s%base[i]), s/base[i]
	}
	return st
}

func pack(st []int, base []uint64) uint64 {
	var s uint64
	for i, x := range st {
		s = s*base[i] + uint64(x)
	}
	return s
}

// emitRedraws emits every state st (over base) reaches as the granted
// VCs, indices into out, redraw their outputs uniformly over radix.
func emitRedraws(st, out, granted []int, base []uint64, radix int, emit func(uint64, float64)) {
	p := math.Pow(float64(radix), -float64(len(granted)))
	redraws(len(granted), radix, func(d []int) {
		for i, v := range granted {
			out[v] = d[i]
		}
		emit(pack(st, base), p)
	})
}

// pickVC is a row's VC pointer choosing among the row's group VCs, from
// out[first], that request output o: the first at or after the pointer
// wins and the pointer moves past it — unless it was the only one. It
// returns -1 when none requests o.
func pickVC(out []int, first, group int, ptr *int, o int) int {
	var hits []int // the row's slots requesting o, from the pointer on
	for x := 0; x < group; x++ {
		if slot := (*ptr + x) % group; out[first+slot] == o {
			hits = append(hits, slot)
		}
	}
	if len(hits) == 0 {
		return -1
	}
	if len(hits) > 1 {
		*ptr = (hits[0] + 1) % group
	}
	return first + hits[0]
}

// wavefrontChain is the wavefront allocator restated from its
// specification. The state is the priority diagonal, every row's VC
// pointer and each VC's output, in that order as one mixed-radix vector.
// Cell (row, out) lies on diagonal (row+out) mod n, n = max(rows, radix);
// the sweep visits the n diagonals from the priority one, each in
// ascending row order, granting a cell whose row and output are both
// still free, to the VC pickVC chooses. The priority diagonal advances
// every cycle.
func wavefrontChain(radix, vcs, k int) *chain {
	rows, group, n := radix*k, vcs/k, max(radix*k, radix)
	base := append([]uint64{uint64(n)}, slices.Repeat([]uint64{uint64(group)}, rows)...)
	base = append(base, slices.Repeat([]uint64{uint64(radix)}, radix*vcs)...)
	return buildChain(0, func(s uint64, emit func(uint64, float64)) []int {
		st := unpack(s, base)
		prio, ptr, out := st[0], st[1:1+rows], st[1+rows:]
		rowBusy, outBusy := make([]bool, rows), make([]bool, radix)
		var granted []int
		for d := 0; d < n; d++ {
			for i := 0; i < rows; i++ {
				j := ((prio+d-i)%n + n) % n
				if j >= radix || rowBusy[i] || outBusy[j] {
					continue
				}
				if v := pickVC(out, (i/k)*vcs+(i%k)*group, group, &ptr[i], j); v >= 0 {
					granted = append(granted, v)
					rowBusy[i], outBusy[j] = true, true
				}
			}
		}
		st[0] = (prio + 1) % n
		emitRedraws(st, out, granted, base, radix, emit)
		return granted
	})
}

// apChain is the augmenting-path allocator restated from its
// specification: Kuhn's maximum matching of rows to outputs, rows in
// ascending order, each trying its outputs in the order its VCs (in
// ascending order) request them; then each matched row grants the VC
// pickVC chooses for its output. The state is every row's VC pointer and
// each VC's output.
func apChain(radix, vcs, k int) *chain {
	rows, group := radix*k, vcs/k
	base := append(slices.Repeat([]uint64{uint64(group)}, rows), slices.Repeat([]uint64{uint64(radix)}, radix*vcs)...)
	return buildChain(0, func(s uint64, emit func(uint64, float64)) []int {
		st := unpack(s, base)
		ptr, out := st[:rows], st[rows:]
		match := slices.Repeat([]int{-1}, radix) // per output: its row
		var augment func(row int, seen []bool) bool
		augment = func(row int, seen []bool) bool {
			first := (row/k)*vcs + (row%k)*group
			for _, o := range out[first : first+group] {
				if !seen[o] {
					seen[o] = true
					if match[o] < 0 || augment(match[o], seen) {
						match[o] = row
						return true
					}
				}
			}
			return false
		}
		for row := 0; row < rows; row++ {
			augment(row, make([]bool, radix))
		}
		var granted []int
		for o, row := range match {
			if row >= 0 {
				granted = append(granted, pickVC(out, (row/k)*vcs+(row%k)*group, group, &ptr[row], o))
			}
		}
		emitRedraws(st, out, granted, base, radix, emit)
		return granted
	})
}

// TestFigure7MatchesExactChains solves the exact chains of eleven small
// testbench points and holds the testbench, over ten seeds, to within four
// standard errors of each: its efficiency, and every input VC's grants per
// cycle, which it counts from its own grants. The state counts and exact
// efficiencies are pinned too, so a change to a model or the solver shows
// as such. Each row names an allocator change it cannot see. Efficiency
// alone catches a wavefront whose priority diagonal never rotates (0.75
// at P = 2, 0.728 at P = 3) and an augmenting path that never augments (a
// greedy matching: 0.813 and 0.769); the per-VC rates also catch a frozen
// input pointer (every k = 1 if row), a frozen output pointer (every if
// and ideal row), a frozen VC pointer (wavefront and ap) and a descending
// augmenting search (both ap rows).
func TestFigure7MatchesExactChains(t *testing.T) {
	const seeds, measure = 10, 20000
	const (
		oneVCRows = "the input pointer: each row holds one VC, so it has no choice to make"
		caught    = "none of the planted faults: a frozen input or output pointer fails it"
		loneMoves = "whether or not a lone requester moves the VC pointer"
		apCaught  = "none of the planted faults: a descending search, a frozen VC pointer, or one a lone requester moves fails it"
	)
	for _, tc := range []struct {
		kind          alloc.Kind
		radix, vcs, k int
		states        int
		exact         float64
		blindTo       string
	}{
		{alloc.KindIdeal, 4, 6, 6, 169, 0.937644, oneVCRows},
		{alloc.KindIdeal, 5, 6, 6, 674, 0.933536, oneVCRows},
		{alloc.KindSeparableIF, 2, 2, 1, 256, 0.75, caught},
		{alloc.KindSeparableIF, 2, 4, 1, 16384, 0.75, caught},
		{alloc.KindSeparableIF, 2, 2, 2, 208, 0.875, oneVCRows},
		{alloc.KindSeparableIF, 3, 2, 1, 145800, 0.682540, caught},
		{alloc.KindSeparableIF, 3, 2, 2, 112644, 0.835286, oneVCRows},
		{alloc.KindWavefront, 2, 2, 1, 128, 0.8375, loneMoves},
		{alloc.KindWavefront, 3, 2, 1, 17496, 0.778009, loneMoves},
		{alloc.KindAugmentingPath, 2, 2, 1, 64, 0.875, apCaught},
		{alloc.KindAugmentingPath, 3, 2, 1, 5832, 0.830797, apCaught},
	} {
		t.Run(fmt.Sprintf("%s P%d v%d k%d", tc.kind, tc.radix, tc.vcs, tc.k), func(t *testing.T) {
			start := time.Now()
			var c *chain
			switch tc.kind {
			case alloc.KindIdeal:
				c = idealChain(tc.radix, tc.vcs)
			case alloc.KindWavefront:
				c = wavefrontChain(tc.radix, tc.vcs, tc.k)
			case alloc.KindAugmentingPath:
				c = apChain(tc.radix, tc.vcs, tc.k)
			default:
				c = ifChain(tc.radix, tc.vcs, tc.k)
			}
			ivcs := tc.radix * tc.vcs
			exact, exactVC := c.solve(tc.radix, ivcs)
			took := time.Since(start)
			if c.states() != tc.states || math.Abs(exact-tc.exact) > 5e-7 {
				t.Fatalf("chain: %d states, efficiency %.7f; want %d, %.6f", c.states(), exact, tc.states, tc.exact)
			}
			// Per seed: the efficiency and each input VC's grants per
			// cycle, counted from the testbench's own grants.
			eff := make([]float64, seeds)
			perVC := make([][]float64, ivcs)
			for seed := range seeds {
				b, err := New(Config{Radix: tc.radix, VCs: tc.vcs, VirtualInputs: tc.k, AllocKind: tc.kind, Seed: uint64(seed + 1)})
				if err != nil {
					t.Fatal(err)
				}
				for range 1000 {
					b.step()
				}
				counts := make([]int, ivcs)
				for range measure {
					for _, g := range b.step() {
						counts[g.IVC]++
					}
				}
				flits := 0
				for v, n := range counts {
					flits += n
					perVC[v] = append(perVC[v], float64(n)/measure)
				}
				eff[seed] = float64(flits) / measure / float64(tc.radix)
			}
			mean, se := meanSE(eff)
			if math.Abs(mean-exact) > 4*se {
				t.Errorf("testbench %.6f ± %.6f (1 SE over %d seeds), exact %.6f: %.1f SE apart",
					mean, se, seeds, exact, math.Abs(mean-exact)/se)
			}
			for v, rates := range perVC {
				if m, e := meanSE(rates); math.Abs(m-exactVC[v]) > 4*e {
					t.Errorf("input VC %d: %.6f ± %.6f grants per cycle, exact %.6f: %.1f SE apart",
						v, m, e, exactVC[v], math.Abs(m-exactVC[v])/e)
				}
			}
			t.Logf("exact %.6f over %d states, solved in %v; testbench %.6f ± %.6f; blind to %s",
				exact, c.states(), took, mean, se, tc.blindTo)
		})
	}
}

// meanSE returns the mean of xs and its standard error.
func meanSE(xs []float64) (mean, se float64) {
	var sum, sumSq float64
	for _, x := range xs {
		sum += x
		sumSq += x * x
	}
	n := float64(len(xs))
	mean = sum / n
	return mean, math.Sqrt((sumSq - n*mean*mean) / (n - 1) / n)
}

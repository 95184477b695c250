package alloc

import "math/bits"

// AugmentingPath computes a maximum bipartite matching between crossbar
// rows and output ports each cycle using Kuhn's augmenting-path algorithm
// (the Ford-Fulkerson construction the paper cites). It is the "AP"
// scheme of the evaluation: the best matching a single cycle can achieve
// on the offered request matrix.
//
// The paper deems AP infeasible to implement within a router cycle
// (Table 3) and observes that, despite its per-router optimality, greedy
// maximum matching is locally optimal but globally unfair at the network
// level (Figure 9). The implementation is deliberately deterministic in
// its search order — exactly the behaviour a hardware realisation would
// have — which is what produces that unfairness.
//
// An instance is a view of an apPool: its VC pointers are its own, the
// matching's scratch its lane's.
type AugmentingPath struct {
	p *apPool
	i int
}

// apPool holds the state of a pool's AugmentingPath views. Instance i's
// rows start at pool row i*rows; lane l's at lane row l*rows, and its
// outputs at l*ports.
type apPool struct {
	pool
	vcPtr []int8 // per pool row: round-robin pointer selecting the transmitting VC

	// Scratch for the matching, per lane.
	adj     []int8   // per lane row, ports each: the row's requested outputs, in order of first request
	adjLen  []int8   // per lane row: how many outputs the row requests
	matchTo []int16  // per lane, ports each: row matched to the output, -1 if free
	visited []uint64 // per lane, outWords each: outputs the current search has visited
	cells   cellSlots
}

// newAugmentingPaths returns n views of one pool with lanes lanes.
func newAugmentingPaths(cfg Config, n, lanes int) []AugmentingPath {
	p := &apPool{pool: newPool(cfg, lanes)}
	p.vcPtr = make([]int8, n*p.rows)
	p.adj = make([]int8, lanes*p.rows*p.ports)
	p.adjLen = make([]int8, lanes*p.rows)
	p.matchTo = make([]int16, lanes*p.ports)
	p.visited = make([]uint64, lanes*p.outWords)
	p.cells = newCellSlots(lanes*p.rows, p.ports)
	vs := make([]AugmentingPath, n)
	for i := range vs {
		vs[i] = AugmentingPath{p, i}
	}
	return vs
}

// Name implements Allocator.
func (a *AugmentingPath) Name() string { return "ap" }

// Reset implements Allocator.
func (a *AugmentingPath) Reset() { clear(seg(a.p.vcPtr, a.i, a.p.rows)) }

// Allocate implements Allocator. The returned slice is its lane's
// scratch, valid until the lane's next Allocate call.
func (a *AugmentingPath) Allocate(rs *RequestSet) []Grant {
	p, l := a.p, a.p.lane(rs)
	at := l * p.rows // the lane's first row
	adjLen := p.adjLen[at : at+p.rows]
	clear(adjLen)
	// Representative request per (row, out); VC choice refined afterwards.
	sg := p.sub
	for port := 0; port < p.ports; port++ {
		lines := portLines(rs.Ready, port, sg.vcs)
		for g := 0; lines != 0 && g < sg.k; g++ {
			row := port*sg.k + g
			for slots := sg.slots(lines, g); slots != 0; slots &= slots - 1 {
				slot := bits.TrailingZeros64(slots)
				out := int(rs.Out[port*sg.vcs+sg.vc(g, slot)])
				if p.cells.add(at+row, out, slot) {
					p.adj[(at+row)*p.ports+int(adjLen[row])] = int8(out)
					adjLen[row]++
				}
			}
		}
	}
	// The lane's first output, and its first word over the outputs.
	outAt, wordAt := l*p.ports, l*p.outWords
	matchTo, visited := p.matchTo[outAt:outAt+p.ports], p.visited[wordAt:wordAt+p.outWords]
	for i := range matchTo {
		matchTo[i] = -1
	}
	for row, n := range adjLen {
		if n == 0 {
			continue
		}
		clear(visited)
		p.augment(at, outAt, wordAt, row)
	}

	grants := p.grantBuf(l)
	vcAt := a.i * p.rows // the instance's first pool row
	for out, row := range matchTo {
		if row < 0 {
			continue
		}
		var slot int
		ptr := &p.vcPtr[vcAt+int(row)]
		slot, *ptr = pickSlot(p.cells.at(at+int(row), out), *ptr, sg.size)
		grants = put(grants, Grant{IVC: sg.ivc(int(row), slot), OutPort: out, Row: int(row)})
	}
	for row := range adjLen {
		for _, out := range p.outs(at + row) {
			p.cells.take(at+row, int(out))
		}
	}
	return grants
}

// outs returns the outputs that row, a row of the lanes' matrices (lane l's
// row r is l*rows+r), requests.
func (p *apPool) outs(row int) []int8 {
	return p.adj[row*p.ports : row*p.ports+int(p.adjLen[row])]
}

// augment tries to find an augmenting path from row, in the lane whose
// first lane row is at, first output outAt and first visited word
// wordAt; it returns true and updates the lane's matching if one exists.
func (p *apPool) augment(at, outAt, wordAt, row int) bool {
	for _, out := range p.outs(at + row) {
		w, bit := &p.visited[wordAt+int(out)>>6], uint64(1)<<uint(out&63)
		if *w&bit != 0 {
			continue
		}
		*w |= bit
		if m := &p.matchTo[outAt+int(out)]; *m < 0 || p.augment(at, outAt, wordAt, int(*m)) {
			*m = int16(row)
			return true
		}
	}
	return false
}

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
type AugmentingPath struct {
	cfg   Config
	sub   subgroups
	vcPtr []int32 // per row: round-robin pointer selecting the transmitting VC

	// scratch for matching
	adj     [][]int // adj[row] = outputs requested
	matchTo []int   // matchTo[out] = row, -1 if free
	visited []bool
	cells   cellSlots
	grants  []Grant
}

// NewAugmentingPath returns a maximum-matching allocator for cfg. It
// panics if cfg is invalid.
func NewAugmentingPath(cfg Config) *AugmentingPath {
	mustValidate(cfg)
	return &AugmentingPath{
		cfg:     cfg,
		sub:     newSubgroups(cfg),
		vcPtr:   make([]int32, cfg.Rows()),
		adj:     make([][]int, cfg.Rows()),
		matchTo: make([]int, cfg.Ports),
		visited: make([]bool, cfg.Ports),
		cells:   newCellSlots(cfg),
		grants:  make([]Grant, 0, cfg.Ports),
	}
}

// Name implements Allocator.
func (a *AugmentingPath) Name() string { return "ap" }

// Reset implements Allocator.
func (a *AugmentingPath) Reset() {
	for i := range a.vcPtr {
		a.vcPtr[i] = 0
	}
}

// Allocate implements Allocator. The returned slice is scratch, valid
// until the next Allocate or Reset call.
func (a *AugmentingPath) Allocate(rs *RequestSet) []Grant {
	rows := a.cfg.Rows()
	for i := 0; i < rows; i++ {
		a.adj[i] = a.adj[i][:0]
	}
	// Representative request per (row, out); VC choice refined afterwards.
	sg := a.sub
	for p := 0; p < a.cfg.Ports; p++ {
		lines := portLines(rs.Ready, p, sg.vcs)
		for g := 0; lines != 0 && g < sg.k; g++ {
			row := p*sg.k + g
			for slots := sg.slots(lines, g); slots != 0; slots &= slots - 1 {
				slot := bits.TrailingZeros64(slots)
				ivc := p*sg.vcs + sg.vc(g, slot)
				out := int(rs.Out[ivc])
				if a.cells.at(row, out) == 0 {
					a.adj[row] = append(a.adj[row], out)
				}
				a.cells.add(row, out, slot)
			}
		}
	}
	for i := range a.matchTo {
		a.matchTo[i] = -1
	}
	for row := 0; row < rows; row++ {
		if len(a.adj[row]) == 0 {
			continue
		}
		for i := range a.visited {
			a.visited[i] = false
		}
		a.augment(row)
	}

	a.grants = a.grants[:0]
	for out, row := range a.matchTo {
		if row < 0 {
			continue
		}
		var slot int
		slot, a.vcPtr[row] = pickSlot(a.cells.at(row, out), a.vcPtr[row], a.sub.size)
		a.grants = append(a.grants, Grant{IVC: a.sub.ivc(row, slot), OutPort: out, Row: row})
	}
	for row, outs := range a.adj {
		for _, out := range outs {
			a.cells.take(row, out)
		}
	}
	return a.grants
}

// augment tries to find an augmenting path from row; it returns true and
// updates the matching if one exists.
func (a *AugmentingPath) augment(row int) bool {
	for _, out := range a.adj[row] {
		if a.visited[out] {
			continue
		}
		a.visited[out] = true
		if a.matchTo[out] < 0 || a.augment(a.matchTo[out]) {
			a.matchTo[out] = row
			return true
		}
	}
	return false
}
